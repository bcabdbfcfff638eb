(* Multi-tenant serving layer.  See serve.mli for the design; the short
   version: LRU of prepared Supervisor artifacts keyed on
   (canonical hash, size binding, policy knobs, lowering gate), shape
   specialization on miss, per-group shared budget scopes, and
   CONCURRENT batch dispatch: the master tags/orders/sheds, then
   key-groups execute as independent tasks across the domain pool, each
   request under its own per-request run context and budget (same-key
   members stay sequential within their group — a compiled artifact's
   closures are not reentrant).  Overload resilience on top: EDF
   ordering with deadline-aware load shedding, bounded-queue admission
   with watermark hysteresis, per-key circuit breakers, and crash-safe
   cache-metadata snapshots.

   Thread-safety: the server's shared mutable state (stats, LRU, seen
   set, estimate tables) is guarded by [t.mu]; the canonical-hash memo
   by its own [t.hash_mu]; the breaker carries an internal mutex.
   Artifact execution — the long part — runs outside every lock. *)

open Ft_ir
open Ft_runtime
module Machine = Ft_machine.Machine
module Supervisor = Ft_backend.Supervisor
module Compile_exec = Ft_backend.Compile_exec
module Exec_par = Ft_backend.Exec_par

type stats = {
  mutable st_hits : int;
  mutable st_misses : int;
  mutable st_compiles : int;
  mutable st_evictions : int;
  mutable st_invalidations : int;
  mutable st_served_clean : int;
  mutable st_retried : int;
  mutable st_degraded : int;
  mutable st_failed : int;
  mutable st_rejected : int;
  mutable st_shed : int;
  mutable st_guard_checks : int;
}

let stats_make () =
  { st_hits = 0; st_misses = 0; st_compiles = 0; st_evictions = 0;
    st_invalidations = 0; st_served_clean = 0; st_retried = 0;
    st_degraded = 0; st_failed = 0; st_rejected = 0; st_shed = 0;
    st_guard_checks = 0 }

let stats_copy s = { s with st_hits = s.st_hits }

type entry = {
  e_sv : Supervisor.t;
  e_hash : string;                 (* canonical hash of the unspecialized fn *)
  e_sizes : (string * int) list;   (* size binding the artifact was built for *)
}

type overload_policy = {
  ov_queue_high : int;
  ov_queue_low : int;
  ov_breaker_k : int;
  ov_breaker_cooldown : int;
  ov_deadline_slack : float;
  ov_ewma_warmup : int;
      (* wall-clock shedding trusts the EWMA service predictor only
         after this many observations of a key; below it, the
         cost-model estimate is used instead *)
}

let default_overload =
  { ov_queue_high = 0;
    ov_queue_low = 0;
    ov_breaker_k = 3;
    ov_breaker_cooldown = 8;
    ov_deadline_slack = 8.0;
    ov_ewma_warmup = 5 }

type t = {
  policy : Supervisor.policy;
  ov : overload_policy;
  cache : entry Lru.t;
  st : stats;
  seen : (string, unit) Hashtbl.t;  (* every key ever, beyond the LRU *)
  batches : (int, int) Hashtbl.t;   (* batch size -> count *)
  breaker : Breaker.t;
  est : (string, float) Hashtbl.t;      (* key -> modeled service seconds *)
  wall_est : (string, float) Hashtbl.t; (* key -> EWMA of wall service *)
  wall_obs : (string, int) Hashtbl.t;   (* key -> EWMA observation count *)
  (* Guards every shared mutable table above plus the stats record:
     concurrent batch members mutate them from pool domains.  Artifact
     execution never runs under it. *)
  mu : Mutex.t;
  (* Single-entry canonical-hash memo, keyed by physical equality: a
     soak serves the same function value thousands of times and must not
     re-print + re-hash the AST per request.  Own lock so key hashing
     (needed even on reject paths) never contends with [mu]. *)
  hash_mu : Mutex.t;
  mutable hash_memo : (Stmt.func * string) option;
  (* Dispatch groups one at a time on the master instead of fanning
     them across the pool.  Everything else — pool size, chunking,
     per-request contexts and budgets — is unchanged, so a sequential
     server is the isolation verifier's baseline: concurrency is the
     only variable. *)
  seq_dispatch : bool;
}

let create ?(capacity = 16) ?(overload = default_overload)
    ?(sequential_dispatch = false) ~policy () =
  if overload.ov_queue_high > 0 && overload.ov_queue_low >= overload.ov_queue_high
  then invalid_arg "Serve.create: queue low watermark must be below high";
  (* A breaker needs a fallback chain to route to; with a single-backend
     policy there is nothing below the primary, so it stays disabled. *)
  let k =
    if List.length policy.Supervisor.backends > 1 then overload.ov_breaker_k
    else 0
  in
  { policy;
    ov = overload;
    cache = Lru.create ~capacity;
    st = stats_make ();
    seen = Hashtbl.create 64;
    batches = Hashtbl.create 8;
    breaker = Breaker.create ~k ~cooldown:overload.ov_breaker_cooldown;
    est = Hashtbl.create 16;
    wall_est = Hashtbl.create 16;
    wall_obs = Hashtbl.create 16;
    mu = Mutex.create ();
    hash_mu = Mutex.create ();
    hash_memo = None;
    seq_dispatch = sequential_dispatch }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let stats t = t.st
let distinct_keys t = Hashtbl.length t.seen
let cache_length t = Lru.length t.cache
let breaker_trips t = Breaker.trips t.breaker
let breaker_recoveries t = Breaker.recoveries t.breaker

let canonical_hash t (fn : Stmt.func) =
  Mutex.lock t.hash_mu;
  match t.hash_memo with
  | Some (fn', h) when fn' == fn ->
    Mutex.unlock t.hash_mu;
    h
  | _ ->
    Mutex.unlock t.hash_mu;
    (* Hash outside the lock — it walks the whole AST and concurrent
       lookups for different functions must not serialize on it. *)
    let h = Canon.canonical_hash fn in
    Mutex.lock t.hash_mu;
    t.hash_memo <- Some (fn, h);
    Mutex.unlock t.hash_mu;
    h

let sizes_str sizes =
  List.sort (fun (a, _) (b, _) -> compare a b) sizes
  |> List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v)
  |> String.concat ","

let chain_str t =
  String.concat ">" (List.map Supervisor.backend_name t.policy.Supervisor.backends)

(* Everything that affects the compiled closures goes in the key; the
   supervisor always compiles with hooks, so that flag is fixed. *)
let key_of t ?(sizes = []) (fn : Stmt.func) =
  Printf.sprintf "%s;sizes=%s;chain=%s;retries=%d;guard=%b;lower=%b"
    (canonical_hash t fn) (sizes_str sizes) (chain_str t)
    t.policy.Supervisor.retries t.policy.Supervisor.guard
    (Ft_lower.Pass.enabled ())

let breaker_state t key = Breaker.state t.breaker key

(* Shape specialization: substitute the size binding into the body and
   the declared parameter shapes, then simplify — loop bounds and shape
   arithmetic fold to constants, so the compiled artifact gets constant
   strides and the strength-reduced fast path.  The specialized function
   runs with an empty size binding. *)
let specialize (fn : Stmt.func) (sizes : (string * int) list) : Stmt.func =
  if sizes = [] then fn
  else begin
    let env n = Option.map Expr.int (List.assoc_opt n sizes) in
    let subst = Expr.subst_var env in
    let params =
      List.map
        (fun (p : Stmt.param) ->
          match p.Stmt.p_shape with
          | Stmt.Any_dim -> p
          | Stmt.Fixed es ->
            { p with Stmt.p_shape = Stmt.Fixed (List.map subst es) })
        fn.Stmt.fn_params
    in
    Ft_passes.Simplify.run
      { fn with
        Stmt.fn_params = params;
        Stmt.fn_body = Stmt.map_exprs subst fn.Stmt.fn_body }
  end

(* Modeled service seconds for a key's specialized program, via the
   supervisor's deadline helper at slack 1 (= raw modeled time).  The
   cost model walks the whole AST, so memoize per key. *)
let model_estimate t key (fn : Stmt.func) sizes =
  match locked t (fun () -> Hashtbl.find_opt t.est key) with
  | Some e -> e
  | None ->
    let e =
      match
        Supervisor.deadline_of_estimate ~slack:1.0 ~device:Types.Cpu
          (specialize fn sizes)
      with
      | Machine.Seconds s when s > 0.0 -> s
      | _ -> 0.0
      | exception _ -> 0.0
    in
    locked t (fun () -> Hashtbl.replace t.est key e);
    e

(* Default relative deadline: [ov_deadline_slack] times the modeled
   service time — [Supervisor.deadline_of_estimate] semantics keyed to
   the serving cache.  Infinite when the model has no estimate. *)
let default_deadline t key (fn : Stmt.func) sizes =
  let e = model_estimate t key fn sizes in
  if e > 0.0 then t.ov.ov_deadline_slack *. e else Float.infinity

let modeled_service t ?(sizes = []) (fn : Stmt.func) =
  model_estimate t (key_of t ~sizes fn) fn sizes

(* Wall-clock service prediction with EWMA warmup: shed on the per-key
   EWMA only once it has at least [ov_ewma_warmup] observations; before
   that fall back to the caller's cost-model estimate, so one or two
   cold-cache outliers can't start shedding a key the server barely
   knows. *)
let predicted_service t key ~est =
  locked t (fun () ->
      let obs = Option.value ~default:0 (Hashtbl.find_opt t.wall_obs key) in
      if obs >= t.ov.ov_ewma_warmup then
        Option.value ~default:est (Hashtbl.find_opt t.wall_est key)
      else est)

(* Record one observed wall service time for [key]: EWMA update plus the
   observation count that gates {!predicted_service}. *)
let note_service t key wall =
  locked t (fun () ->
      let prev =
        Option.value ~default:wall (Hashtbl.find_opt t.wall_est key)
      in
      Hashtbl.replace t.wall_est key ((0.7 *. prev) +. (0.3 *. wall));
      Hashtbl.replace t.wall_obs key
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.wall_obs key)))

type request = {
  rq_id : int;
  rq_fn : Stmt.func;
  rq_sizes : (string * int) list;
  rq_args : (string * Tensor.t) list;
  rq_plan : Machine.Fault_plan.t option;
  rq_deadline : float option;
}

let request ?(sizes = []) ?plan ?deadline ~id fn args =
  { rq_id = id; rq_fn = fn; rq_sizes = sizes; rq_args = args;
    rq_plan = plan; rq_deadline = deadline }

type status =
  | Completed of Supervisor.outcome
  | Rejected of Diag.t

type response = {
  rs_id : int;
  rs_key : string;
  rs_hit : bool;
  rs_guard_checks : int;
  rs_status : status;
}

let served r =
  match r.rs_status with
  | Completed o -> o.Supervisor.result <> None
  | Rejected _ -> false

let shed_response t (rq : request) key detail =
  locked t (fun () -> t.st.st_shed <- t.st.st_shed + 1);
  { rs_id = rq.rq_id; rs_key = key; rs_hit = false; rs_guard_checks = 0;
    rs_status = Rejected (Diag.overload ~fn:rq.rq_fn.Stmt.fn_name detail) }

(* Lookup-or-compile under [t.mu]: the lock also serializes compiles, so
   two concurrent first requests for one key build the artifact once.
   Compiles are rare after warmup, so holding the lock across [prepare]
   costs contention only on the cold path. *)
let lookup t (rq : request) : string * entry * bool =
  let key = key_of t ~sizes:rq.rq_sizes rq.rq_fn in
  let hash = canonical_hash t rq.rq_fn in
  locked t (fun () ->
      match Lru.find t.cache key with
      | Some e ->
        t.st.st_hits <- t.st.st_hits + 1;
        (key, e, true)
      | None ->
        t.st.st_misses <- t.st.st_misses + 1;
        t.st.st_compiles <- t.st.st_compiles + 1;
        if not (Hashtbl.mem t.seen key) then Hashtbl.add t.seen key ();
        let fn = specialize rq.rq_fn rq.rq_sizes in
        let e =
          { e_sv = Supervisor.prepare ~policy:t.policy fn;
            e_hash = hash;
            e_sizes = rq.rq_sizes }
        in
        (match Lru.add t.cache key e with
         | None -> ()
         | Some _ -> t.st.st_evictions <- t.st.st_evictions + 1);
        (key, e, false))

(* Admission control: a request whose argument footprint alone exceeds
   the memory budget can never complete on a budgeted backend — reject
   it up front instead of letting it churn through the chain. *)
let admit t (rq : request) : Diag.t option =
  match t.policy.Supervisor.mem_budget_bytes with
  | None -> None
  | Some cap ->
    let footprint =
      List.fold_left (fun a (_, x) -> a + Tensor.byte_size x) 0 rq.rq_args
    in
    if footprint <= cap then None
    else
      Some
        (Diag.make ~code:Diag.Oom ~fn:rq.rq_fn.Stmt.fn_name
           (Printf.sprintf
              "admission: request footprint %d bytes exceeds the %d-byte \
               memory budget"
              footprint cap))

let serve_one t (rq : request) : response =
  match admit t rq with
  | Some d ->
    locked t (fun () -> t.st.st_rejected <- t.st.st_rejected + 1);
    { rs_id = rq.rq_id;
      rs_key = key_of t ~sizes:rq.rq_sizes rq.rq_fn;
      rs_hit = false; rs_guard_checks = 0; rs_status = Rejected d }
  | None ->
    let key, e, hit = lookup t rq in
    (* Breaker routing: a tripped key skips the suspect primary and goes
       straight to the fallback chain — no recompile-and-fail loop. *)
    let route = Breaker.route t.breaker key in
    let skip = match route with `Fallback -> 1 | `Primary | `Probe -> 0 in
    (* Artifacts are cached and reused, so raw guard counters accumulate
       across requests; report this request's work as a snapshot delta.
       Same-key requests serialize (concurrent dispatch keeps a key's
       members in one group), so the delta is this request's alone. *)
    let snaps =
      List.map
        (fun (_, g) -> (g, Compile_exec.guard_snapshot g))
        (Supervisor.guard_stats e.e_sv)
    in
    (* The execution itself — the long part — runs outside every server
       lock, under the request's own run context and budget. *)
    let o = Supervisor.exec ?plan:rq.rq_plan ~skip e.e_sv rq.rq_args in
    let checks =
      List.fold_left
        (fun a (g, s) -> a + Compile_exec.guard_checks_since g s)
        0 snaps
    in
    locked t (fun () ->
        t.st.st_guard_checks <- t.st.st_guard_checks + checks;
        (match o.Supervisor.result with
         | None ->
           t.st.st_failed <- t.st.st_failed + 1
         | Some _ when o.Supervisor.degraded ->
           t.st.st_degraded <- t.st.st_degraded + 1
         | Some _ when o.Supervisor.retried ->
           t.st.st_retried <- t.st.st_retried + 1
         | Some _ -> t.st.st_served_clean <- t.st.st_served_clean + 1);
        let primary_ok =
          skip = 0 && o.Supervisor.result <> None && not o.Supervisor.degraded
        in
        (match route with
         | `Primary | `Probe -> Breaker.record t.breaker key ~primary_ok
         | `Fallback -> ());
        (* A demotion or fail-closed taints the artifact's primary: drop
           the entry so the next request compiles fresh instead of
           replaying a degraded closure.  But only while the breaker
           stays closed — the failure that trips it (and every
           fallback/probe under it) keeps the artifact, so fallback
           requests hit the cache and the compile count stays flat for
           the whole time the key is tripped. *)
        if (o.Supervisor.result = None || o.Supervisor.degraded)
           && (match route with `Primary -> true | `Fallback | `Probe -> false)
           && Breaker.state t.breaker key = Breaker.Closed
        then
          if Lru.mem t.cache key then begin
            Lru.remove t.cache key;
            t.st.st_invalidations <- t.st.st_invalidations + 1
          end);
    { rs_id = rq.rq_id; rs_key = key; rs_hit = hit;
      rs_guard_checks = checks; rs_status = Completed o }

let record_batch t size =
  if size > 0 then
    locked t (fun () ->
        Hashtbl.replace t.batches size
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.batches size)))

let batch_histogram t =
  List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) t.batches [])

(* One batch shares a single parent budget scope: the master installs
   it, each group job adopts it on its executing domain, and the
   supervisor chains its per-request budget under it as a child — the
   group keeps its aggregate cap while every request keeps per-request
   accounting.  [f] receives the scope to adopt (possibly [None]). *)
let in_group_scope t f =
  match t.policy.Supervisor.mem_budget_bytes with
  | Some cap when not (Tensor.budget_active ()) ->
    Tensor.with_budget ~fn:"serve-batch" cap (fun () ->
        f (Tensor.current_budget ()))
  | _ -> f (Tensor.current_budget ())

let serve t rq =
  record_batch t 1;
  serve_one t rq

(* Concurrent group dispatch: each group (same-key members, order
   preserved) becomes one task on the domain pool; independent groups
   run concurrently, each member under its own run context and
   per-request budget (chained under [parent] when a batch cap is set).
   Same-key members stay sequential inside their group task because a
   compiled artifact's closures bind shared argument cells — the
   per-key serialization is what keeps guard-check deltas and fault
   ordinals per-request exact.  Returns responses in the same nested
   order as [groups], plus each member's measured wall service time.

   Fault containment: a task exception (which [serve_one] should never
   produce — the supervisor fails closed) marks only that group's
   unfinished members as structured failures; every other group still
   runs and the pool stays reusable. *)
let run_groups t parent (groups : request list list) :
    (response * float) list list =
  let groups_a = Array.of_list (List.map Array.of_list groups) in
  let results =
    Array.map (fun g -> Array.make (Array.length g) None) groups_a
  in
  let job gi () =
    Tensor.with_adopted parent (fun () ->
        Array.iteri
          (fun mi rq ->
            let t0 = Unix.gettimeofday () in
            let r = serve_one t rq in
            let wall = Unix.gettimeofday () -. t0 in
            results.(gi).(mi) <- Some (r, wall))
          groups_a.(gi))
  in
  let exns =
    Exec_par.run_tasks
      ?max_workers:(if t.seq_dispatch then Some 1 else None)
      (Array.init (Array.length groups_a) (fun gi () -> job gi ()))
  in
  Array.to_list
    (Array.mapi
       (fun gi slots ->
         Array.to_list
           (Array.mapi
              (fun mi slot ->
                match slot with
                | Some rw -> rw
                | None ->
                  let rq = groups_a.(gi).(mi) in
                  let detail =
                    match exns.(gi) with
                    | Some e -> Printexc.to_string e
                    | None -> "group task aborted"
                  in
                  locked t (fun () ->
                      t.st.st_rejected <- t.st.st_rejected + 1);
                  ( { rs_id = rq.rq_id;
                      rs_key = key_of t ~sizes:rq.rq_sizes rq.rq_fn;
                      rs_hit = false; rs_guard_checks = 0;
                      rs_status =
                        Rejected
                          (Diag.exec_fault ~fn:rq.rq_fn.Stmt.fn_name
                             ("worker-domain exception: " ^ detail)) },
                    0.0 ))
              slots))
       results)

(* EDF + shedding batch drain.  Requests are ordered earliest-deadline-
   first (relative deadlines: explicit [rq_deadline], else the modeled
   default); among equal deadlines the old stable key-grouping applies,
   so deadline-free batches behave exactly as before.  A member whose
   deadline cannot be met given the modeled backlog ahead of it is shed
   with a structured [overload] rejection instead of served late. *)
let serve_batch t (rqs : request list) : response list =
  let tagged =
    List.map
      (fun rq ->
        let key = key_of t ~sizes:rq.rq_sizes rq.rq_fn in
        let est = model_estimate t key rq.rq_fn rq.rq_sizes in
        let dl =
          match rq.rq_deadline with
          | Some d -> d
          | None -> default_deadline t key rq.rq_fn rq.rq_sizes
        in
        (rq, key, est, dl))
      rqs
  in
  let sorted =
    List.stable_sort (fun (_, _, _, a) (_, _, _, b) -> compare a b) tagged
  in
  (* Runs of equal deadline, in order. *)
  let runs =
    List.fold_left
      (fun acc ((_, _, _, dl) as m) ->
        match acc with
        | (dl', run) :: rest when dl' = dl -> (dl', m :: run) :: rest
        | _ -> (dl, [ m ]) :: acc)
      [] sorted
    |> List.rev_map (fun (_, run) -> List.rev run)
  in
  (* Stable grouping by cache key inside a run: first arrival decides
     group order, members keep arrival order inside their group. *)
  let group_run run =
    let order = ref [] in
    let groups = Hashtbl.create 8 in
    List.iter
      (fun ((_, key, _, _) as m) ->
        match Hashtbl.find_opt groups key with
        | Some l -> l := m :: !l
        | None ->
          Hashtbl.add groups key (ref [ m ]);
          order := key :: !order)
      run;
    List.rev_map (fun key -> List.rev !(Hashtbl.find groups key)) !order
    |> List.rev
  in
  let grouped = List.concat_map group_run runs in
  (* Shed pass on the master, with exactly the sequential-drain
     semantics (backlog accrues only for members that will execute, in
     group order) — decisions are therefore identical whatever the pool
     size, which the isolation verifier depends on. *)
  let backlog = ref 0.0 in
  let decided =
    List.map
      (fun members ->
        List.map
          (fun (rq, key, est, dl) ->
            if dl < Float.infinity && !backlog +. est > dl then
              `Shed
                ( rq, key,
                  Printf.sprintf
                    "deadline: %.3g s of estimated backlog ahead makes \
                     the %.3g s deadline unmeetable"
                    !backlog dl )
            else begin
              backlog := !backlog +. est;
              `Run rq
            end)
          members)
      grouped
  in
  let to_run =
    List.filter_map
      (fun members ->
        match
          List.filter_map
            (function `Run rq -> Some rq | `Shed _ -> None)
            members
        with
        | [] -> None
        | rqs -> Some rqs)
      decided
  in
  (* Execute the surviving groups concurrently across the pool, under
     one shared batch-parent budget. *)
  let executed =
    in_group_scope t (fun parent -> run_groups t parent to_run)
  in
  let remaining = ref executed in
  let responses =
    List.concat_map
      (fun members ->
        let exec_rs =
          if List.exists (function `Run _ -> true | `Shed _ -> false) members
          then (
            match !remaining with
            | g :: rest ->
              remaining := rest;
              ref (List.map fst g)
            | [] -> ref [])
          else ref []
        in
        let out =
          List.map
            (function
              | `Shed (rq, key, detail) -> shed_response t rq key detail
              | `Run _ -> (
                match !exec_rs with
                | r :: rest ->
                  exec_rs := rest;
                  r
                | [] -> assert false))
            members
        in
        let served_n =
          List.length
            (List.filter
               (fun r ->
                 match r.rs_status with
                 | Rejected d -> d.Diag.dg_code <> Diag.Overload
                 | Completed _ -> true)
               out)
        in
        record_batch t served_n;
        out)
      decided
  in
  (* Back to request order. *)
  let by_id = Hashtbl.create (List.length responses) in
  List.iter (fun r -> Hashtbl.replace by_id r.rs_id r) responses;
  List.map (fun rq -> Hashtbl.find by_id rq.rq_id) rqs

(* ------------------------------------------------------------------ *)
(* Cache persistence *)

type warm_report = {
  ws_present : bool;
  ws_corrupt : string option;
  ws_records : int;
  ws_loaded : int;
  ws_skipped : int;
}

let snapshot_record t (e : entry) =
  String.concat "\t"
    [ e.e_hash;
      sizes_str e.e_sizes;
      chain_str t;
      string_of_int t.policy.Supervisor.retries;
      string_of_bool t.policy.Supervisor.guard;
      string_of_bool (Ft_lower.Pass.enabled ()) ]

let save_snapshot t ~path =
  (* LRU-first order: re-adding on load then restores recency. *)
  let records =
    List.rev_map (fun (_, e) -> snapshot_record t e) (Lru.to_list t.cache)
  in
  Snapshot.write ~path records;
  List.length records

let parse_sizes s =
  if s = "" then Some []
  else begin
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | p :: rest ->
        (match String.index_opt p '=' with
         | None -> None
         | Some i ->
           (match
              int_of_string_opt
                (String.sub p (i + 1) (String.length p - i - 1))
            with
            | None -> None
            | Some v -> go ((String.sub p 0 i, v) :: acc) rest))
    in
    go [] (String.split_on_char ',' s)
  end

let load_snapshot t ~path ~resolve =
  match Snapshot.read ~path with
  | Snapshot.Absent ->
    { ws_present = false; ws_corrupt = None; ws_records = 0;
      ws_loaded = 0; ws_skipped = 0 }
  | Snapshot.Corrupt reason ->
    { ws_present = true; ws_corrupt = Some reason; ws_records = 0;
      ws_loaded = 0; ws_skipped = 0 }
  | Snapshot.Loaded records ->
    let loaded = ref 0 and skipped = ref 0 in
    let warm hash sizes fn =
      let key = key_of t ~sizes fn in
      if Lru.mem t.cache key then incr skipped
      else begin
        match Supervisor.prepare ~policy:t.policy (specialize fn sizes) with
        | exception _ -> incr skipped
        | sv ->
          (* A warm-start re-preparation is a compile but not a miss: no
             request asked for this key yet. *)
          t.st.st_compiles <- t.st.st_compiles + 1;
          (match
             Lru.add t.cache key { e_sv = sv; e_hash = hash; e_sizes = sizes }
           with
           | None -> ()
           | Some _ -> t.st.st_evictions <- t.st.st_evictions + 1);
          if not (Hashtbl.mem t.seen key) then Hashtbl.add t.seen key ();
          incr loaded
      end
    in
    List.iter
      (fun r ->
        match String.split_on_char '\t' r with
        | [ hash; sizes_s; chain; retries_s; guard_s; lower_s ] ->
          let policy_ok =
            chain = chain_str t
            && retries_s = string_of_int t.policy.Supervisor.retries
            && guard_s = string_of_bool t.policy.Supervisor.guard
            && lower_s = string_of_bool (Ft_lower.Pass.enabled ())
          in
          if not policy_ok then incr skipped
          else begin
            match resolve hash with
            | Some fn when canonical_hash t fn = hash ->
              (match parse_sizes sizes_s with
               | Some sizes -> warm hash sizes fn
               | None -> incr skipped)
            | Some _ | None -> incr skipped
          end
        | _ -> incr skipped)
      records;
    { ws_present = true; ws_corrupt = None;
      ws_records = List.length records;
      ws_loaded = !loaded; ws_skipped = !skipped }

let warm_report_to_string w =
  if not w.ws_present then "snapshot: absent (cold start)"
  else
    match w.ws_corrupt with
    | Some reason ->
      Printf.sprintf "snapshot: CORRUPT (%s) — rebuilding cold" reason
    | None ->
      Printf.sprintf
        "snapshot: %d record(s), %d artifact(s) re-prepared, %d skipped"
        w.ws_records w.ws_loaded w.ws_skipped

(* ------------------------------------------------------------------ *)
(* Soak driver *)

type soak_config = {
  so_seed : int;
  so_requests : int;
  so_rate : float;
  so_batch : int;
  so_phases : (float * float) list;
  so_virtual : bool;
}

let soak_cfg ?(phases = []) ?(virtual_time = false) ~seed ~requests ~rate
    ~batch () =
  { so_seed = seed; so_requests = requests; so_rate = rate;
    so_batch = batch; so_phases = phases; so_virtual = virtual_time }

type soak_report = {
  sk_requests : int;
  sk_served_clean : int;
  sk_retried : int;
  sk_degraded : int;
  sk_failed : int;
  sk_rejected : int;
  sk_shed_admission : int;
  sk_shed_deadline : int;
  sk_deadline_miss : int;
  sk_makespan_s : float;
  sk_throughput_rps : float;
  sk_p50_ms : float;
  sk_p99_ms : float;
  sk_hit_rate : float;
  sk_warm_rate : float;
  sk_compiles : int;
  sk_distinct_keys : int;
  sk_recompiles_after_warmup : int;
  sk_evictions : int;
  sk_invalidations : int;
  sk_guard_checks : int;
  sk_queue_peak : int;
  sk_breaker_trips : int;
  sk_breaker_recoveries : int;
  sk_batch_hist : (int * int) list;
}

(* splitmix64-style mixer, shared idiom with Machine.Fault_plan:
   deterministic across OCaml versions, unlike Random.State. *)
let mix seed k =
  let z =
    Int64.add (Int64.of_int seed)
      (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (k + 1)))
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z 0x3FFFFFFFFFFFFFFFL)

(* Uniform in (0, 1]: never 0, so [log] below is safe. *)
let u01 seed k = (float_of_int (mix seed k) +. 1.0) /. 0x1p62

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(int_of_float (q *. float_of_int (n - 1)))

let soak ?(on_response = fun _ _ -> ()) t ~(cfg : soak_config)
    ~(make_request : int -> request) : soak_report =
  if cfg.so_requests < 1 then invalid_arg "Serve.soak: requests must be >= 1";
  if cfg.so_rate <= 0.0 then invalid_arg "Serve.soak: rate must be > 0";
  if cfg.so_batch < 1 then invalid_arg "Serve.soak: batch must be >= 1";
  let n = cfg.so_requests in
  (* Open-loop arrivals: exponential inter-arrivals at [so_rate] times
     the phase's rate multiplier — bursty/overload phases compress the
     arrival process without touching the seed stream. *)
  let phases = if cfg.so_phases = [] then [ (1.0, 1.0) ] else cfg.so_phases in
  List.iter
    (fun (f, m) ->
      if f <= 0.0 || m <= 0.0 then
        invalid_arg
          "Serve.soak: phase fractions and rate multipliers must be > 0")
    phases;
  let frac_total = List.fold_left (fun a (f, _) -> a +. f) 0.0 phases in
  let mult_of i =
    let x = float_of_int i /. float_of_int n *. frac_total in
    let rec go acc = function
      | [] -> 1.0
      | [ (_, m) ] -> m
      | (f, m) :: rest -> if x < acc +. f then m else go (acc +. f) rest
    in
    go 0.0 phases
  in
  let arrivals = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (-.log (u01 cfg.so_seed i) /. (cfg.so_rate *. mult_of i));
    arrivals.(i) <- !acc
  done;
  let before = stats_copy t.st in
  let keys_before = distinct_keys t in
  let hist_before = batch_histogram t in
  let trips_before = Breaker.trips t.breaker in
  let recov_before = Breaker.recoveries t.breaker in
  let latencies = ref [] in
  let clean = ref 0 and retried = ref 0 and degraded = ref 0 in
  let failed = ref 0 and rejected = ref 0 in
  let shed_admission = ref 0 and shed_deadline = ref 0 in
  let deadline_miss = ref 0 and queue_peak = ref 0 in
  let touched = Hashtbl.create 16 in  (* keys actually served this soak *)
  let now = ref 0.0 in
  let next = ref 0 in
  let saturated = ref false in
  (* Queue of admitted requests: EDF over absolute deadlines.  Value is
     (index, key, fn name, modeled est); the request object itself is
     re-materialized just before execution so batch members may share
     argument buffers. *)
  let q : (int * string * string * float) Edfq.t = Edfq.create () in
  let count_status (r : response) =
    match r.rs_status with
    | Rejected _ -> incr rejected
    | Completed o ->
      (match o.Supervisor.result with
       | None -> incr failed
       | Some _ when o.Supervisor.degraded -> incr degraded
       | Some _ when o.Supervisor.retried -> incr retried
       | Some _ -> incr clean)
  in
  while !next < n || not (Edfq.is_empty q) do
    (* Admit everything that has arrived by [now]. *)
    while !next < n && arrivals.(!next) <= !now do
      let j = !next in
      incr next;
      let rq = make_request j in
      let key = key_of t ~sizes:rq.rq_sizes rq.rq_fn in
      let qlen = Edfq.length q in
      if t.ov.ov_queue_high > 0 then begin
        if !saturated then begin
          if qlen <= t.ov.ov_queue_low then saturated := false
        end
        else if qlen >= t.ov.ov_queue_high then saturated := true
      end;
      if !saturated then begin
        incr shed_admission;
        let r =
          shed_response t rq key
            (Printf.sprintf
               "admission: queue depth %d at the high watermark %d; \
                shedding until it drains to %d"
               qlen t.ov.ov_queue_high t.ov.ov_queue_low)
        in
        on_response j r
      end
      else begin
        let est = model_estimate t key rq.rq_fn rq.rq_sizes in
        let rel =
          match rq.rq_deadline with
          | Some d -> d
          | None ->
            (* Default deadlines only make sense when the timeline and
               the estimate share units — i.e. in virtual time.  In
               wall-clock mode the model prices the paper's machine,
               not this host, so defaults stay infinite. *)
            if cfg.so_virtual then default_deadline t key rq.rq_fn rq.rq_sizes
            else Float.infinity
        in
        Edfq.push q ~deadline:(arrivals.(j) +. rel)
          (j, key, rq.rq_fn.Stmt.fn_name, est);
        if Edfq.length q > !queue_peak then queue_peak := Edfq.length q
      end
    done;
    if Edfq.is_empty q then begin
      (* Idle: jump to the next arrival. *)
      if !next < n then now := Float.max !now arrivals.(!next)
    end
    else begin
      (* Drain up to [so_batch] queued requests in EDF order. *)
      let batch = ref [] in
      while List.length !batch < cfg.so_batch && not (Edfq.is_empty q) do
        match Edfq.pop q with
        | Some (dl, v) -> batch := (dl, v) :: !batch
        | None -> ()
      done;
      let batch = List.rev !batch in
      (* Pass 1 — shed decisions and the virtual-time simulation, on
         the master only.  Predicted service: the model in virtual
         time, the warmed-up per-key EWMA (else the model estimate) in
         wall-clock mode.  In virtual time the simulated clock advances
         member by member exactly as the sequential drain's did, so
         every decision and completion stamp is identical for every
         pool size — the isolation verifier's determinism gate.  In
         wall-clock mode all of a batch's decisions use the clock at
         batch start (the members run concurrently; there is no
         sequential backlog to price), which is honest but — like every
         wall measurement — not deterministic. *)
      let sim_now = ref !now in
      let decisions =
        List.map
          (fun (dl, (j, key, fname, est)) ->
            let svc_pred =
              if cfg.so_virtual then Float.max est 1e-9
              else predicted_service t key ~est
            in
            if dl < Float.infinity && !sim_now +. svc_pred > dl then begin
              incr shed_deadline;
              locked t (fun () -> t.st.st_shed <- t.st.st_shed + 1);
              let r =
                { rs_id = j; rs_key = key; rs_hit = false;
                  rs_guard_checks = 0;
                  rs_status =
                    Rejected
                      (Diag.overload ~fn:fname
                         (Printf.sprintf
                            "deadline: %.3g s backlog at dispatch makes \
                             the deadline (t=%.3g s) unmeetable"
                            (!sim_now -. arrivals.(j)) dl)) }
              in
              `Shed (j, r)
            end
            else begin
              Hashtbl.replace touched key ();
              if cfg.so_virtual then
                sim_now := !sim_now +. Float.max est 1e-9;
              `Run (j, key, dl, !sim_now)
            end)
          batch
      in
      (* Pass 2 — materialize and execute.  Requests are materialized
         on the master in dispatch order ([make_request] may be
         stateful), grouped by cache key (same-key members stay
         sequential inside one group task), and the groups dispatched
         concurrently across the domain pool. *)
      let to_run =
        List.filter_map
          (function `Run (j, key, _, _) -> Some (j, key) | `Shed _ -> None)
          decisions
      in
      let by_j = Hashtbl.create 16 in
      let batch_elapsed = ref 0.0 in
      if to_run <> [] then begin
        let order = ref [] in
        let groups = Hashtbl.create 8 in
        List.iter
          (fun (j, key) ->
            let jr = (j, make_request j) in
            match Hashtbl.find_opt groups key with
            | Some l -> l := jr :: !l
            | None ->
              Hashtbl.add groups key (ref [ jr ]);
              order := key :: !order)
          to_run;
        let grouped =
          List.rev_map (fun key -> List.rev !(Hashtbl.find groups key)) !order
        in
        let t0 = Unix.gettimeofday () in
        let executed =
          in_group_scope t (fun parent ->
              run_groups t parent (List.map (List.map snd) grouped))
        in
        batch_elapsed := Unix.gettimeofday () -. t0;
        (* keyed by stream index: request ids are the caller's and need
           not equal [j] (a restarted server numbers from the crash) *)
        List.iter2
          (List.iter2 (fun (j, _) rw -> Hashtbl.replace by_j j rw))
          grouped executed
      end;
      (* Pass 3 — accounting and callbacks, on the master, in the
         canonical EDF dispatch order (so [on_response] ordering and
         the EWMA update sequence match the sequential drain).  Wall
         time advances by the measured elapsed of the whole concurrent
         batch; virtual time was already advanced by the pass-1
         simulation. *)
      let now_after =
        if cfg.so_virtual then !sim_now else !now +. !batch_elapsed
      in
      let served_in_batch = ref 0 in
      List.iter
        (function
          | `Shed (j, r) -> on_response j r
          | `Run (j, key, dl, done_at) ->
            let r, wall = Hashtbl.find by_j j in
            incr served_in_batch;
            note_service t key wall;
            let completion = if cfg.so_virtual then done_at else now_after in
            latencies := (completion -. arrivals.(j)) :: !latencies;
            if dl < Float.infinity && completion > dl then
              incr deadline_miss;
            count_status r;
            on_response j r)
        decisions;
      now := now_after;
      if !served_in_batch > 0 then record_batch t !served_in_batch
    end
  done;
  let makespan = !now in
  let latencies = Array.of_list !latencies in
  Array.sort compare latencies;
  let d get = get t.st - get before in
  let hits = d (fun s -> s.st_hits) in
  let compiles = d (fun s -> s.st_compiles) in
  let new_keys = distinct_keys t - keys_before in
  (* Steady state: discount each key's compulsory first miss. *)
  let steady_lookups = hits + compiles - new_keys in
  let hit_rate =
    if steady_lookups <= 0 then 1.0
    else float_of_int hits /. float_of_int steady_lookups
  in
  (* Warm-start rate: of the keys this soak actually served, the
     fraction the server already knew (no first-ever compile needed) —
     1.0 right after a successful snapshot load, 0.0 on a cold start. *)
  let keys_touched = Hashtbl.length touched in
  let warm_rate =
    if keys_touched = 0 then 1.0
    else
      Float.max 0.0
        (1.0 -. (float_of_int new_keys /. float_of_int keys_touched))
  in
  let served_total = !clean + !retried + !degraded in
  let hist_delta =
    List.filter_map
      (fun (size, count) ->
        let prior =
          Option.value ~default:0 (List.assoc_opt size hist_before)
        in
        if count > prior then Some (size, count - prior) else None)
      (batch_histogram t)
  in
  { sk_requests = n;
    sk_served_clean = !clean;
    sk_retried = !retried;
    sk_degraded = !degraded;
    sk_failed = !failed;
    sk_rejected = !rejected;
    sk_shed_admission = !shed_admission;
    sk_shed_deadline = !shed_deadline;
    sk_deadline_miss = !deadline_miss;
    sk_makespan_s = makespan;
    sk_throughput_rps =
      float_of_int served_total /. Float.max 1e-9 makespan;
    sk_p50_ms = 1e3 *. percentile latencies 0.50;
    sk_p99_ms = 1e3 *. percentile latencies 0.99;
    sk_hit_rate = hit_rate;
    sk_warm_rate = warm_rate;
    sk_compiles = compiles;
    sk_distinct_keys = new_keys;
    sk_recompiles_after_warmup = compiles - new_keys;
    sk_evictions = d (fun s -> s.st_evictions);
    sk_invalidations = d (fun s -> s.st_invalidations);
    sk_guard_checks = d (fun s -> s.st_guard_checks);
    sk_queue_peak = !queue_peak;
    sk_breaker_trips = Breaker.trips t.breaker - trips_before;
    sk_breaker_recoveries = Breaker.recoveries t.breaker - recov_before;
    sk_batch_hist = hist_delta }

let soak_report_to_string r =
  let pct x = 100.0 *. float_of_int x /. float_of_int r.sk_requests in
  let shed = r.sk_shed_admission + r.sk_shed_deadline in
  String.concat "\n"
    [ Printf.sprintf
        "%d request(s) drained in %.3fs simulated  (goodput %.1f req/s)"
        r.sk_requests r.sk_makespan_s r.sk_throughput_rps;
      Printf.sprintf
        "  served clean %4d (%5.1f%%)   retried %d   degraded %d   \
         failed %d   rejected %d"
        r.sk_served_clean (pct r.sk_served_clean) r.sk_retried
        r.sk_degraded r.sk_failed r.sk_rejected;
      Printf.sprintf
        "  overload: shed %d (%5.1f%%: %d admission, %d deadline)   \
         deadline misses %d   queue peak %d"
        shed (pct shed) r.sk_shed_admission r.sk_shed_deadline
        r.sk_deadline_miss r.sk_queue_peak;
      Printf.sprintf "  latency p50 %.3fms   p99 %.3fms (served only)"
        r.sk_p50_ms r.sk_p99_ms;
      Printf.sprintf
        "  cache: steady-state hit-rate %.1f%%   warm-start rate %.1f%%   \
         %d compile(s) for %d distinct key(s)   %d recompile(s) after \
         warmup"
        (100.0 *. r.sk_hit_rate) (100.0 *. r.sk_warm_rate) r.sk_compiles
        r.sk_distinct_keys r.sk_recompiles_after_warmup;
      Printf.sprintf "  cache: %d eviction(s)   %d invalidation(s)"
        r.sk_evictions r.sk_invalidations;
      Printf.sprintf "  breaker: %d trip(s)   %d recoveries"
        r.sk_breaker_trips r.sk_breaker_recoveries;
      Printf.sprintf "  guard checks executed: %d" r.sk_guard_checks;
      Printf.sprintf "  batches (size x count): %s"
        (if r.sk_batch_hist = [] then "-"
         else
           String.concat "  "
             (List.map
                (fun (s, c) -> Printf.sprintf "%dx%d" s c)
                r.sk_batch_hist)) ]
