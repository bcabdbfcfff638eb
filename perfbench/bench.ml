(* The repository benchmark: three workloads driven through the system's
   public functions only, each measured end to end (tracing off) or per
   layer (a separate traced run).  Usage:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]; the lines before it
   are a human-readable report.  The exit code is 1 when any response's
   output was wrong, 2 on a usage error. *)

open Ft_ir
module Serve = Ft_serve.Serve
module Supervisor = Ft_backend.Supervisor
module Compile_exec = Ft_backend.Compile_exec
module Exec_par = Ft_backend.Exec_par
module Auto = Ft_auto.Auto

let now = Unix.gettimeofday
let ms s = 1000.0 *. s

(* {1 Statistics} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))

(* The tail: the highest percentile with at least ten samples beyond it,
   i.e. the eleventh-largest sample.  Returns (value, percentile, n). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0)
  else
    let k = max 0 (n - 11) in
    (a.(k), 100.0 *. float_of_int k /. float_of_int n, n)

(* {1 Rate ladder and arrivals} *)

(* Rungs 2^(k/16) req/s: the ladder every [max_rate_rps] is read from. *)
let rung k = 2.0 ** (float_of_int k /. 16.0)
let rung_below r = int_of_float (Float.floor (16.0 *. Float.log2 r +. 1e-9))

(* [n] Poisson arrivals over [0, n / rate): a Poisson process conditioned
   on its count is [n] sorted uniform points, so the offered count is
   exact and only the spacing is random. *)
let arrivals rng ~rate ~n =
  let span = float_of_int n /. rate in
  let a = Array.init n (fun _ -> Random.State.float rng span) in
  Array.sort compare a;
  a

(* {1 Requests} *)

(* A served program: its instance, a label unique within the workload,
   its auto-scheduled function once built, and its requests' latencies. *)
type prog = {
  inst : Progs.inst;
  label : string;
  mutable fn : Stmt.func option;
  mutable lats : float list;  (** seconds, newest first *)
}

let make_prog label inst = { inst; label; fn = None; lats = [] }

(* Counts over the measured requests; [wrong] also covers set-up,
   warm-up and pricing requests, since any wrong output fails the run. *)
let attempted = ref 0
let failed = ref 0
let wrong = ref 0

let failures_shown = ref 0

(* Checked after the timed interval: served, and every output as expected. *)
let check (p : prog) (r : Serve.response) =
  let served = Serve.served r in
  let ok = served && Progs.correct p.inst in
  if (not ok) && !failures_shown < 5 then begin
    incr failures_shown;
    Printf.eprintf "perfbench: %s: %s\n" p.label
      (match r.Serve.rs_status with
       | Serve.Completed o when served -> "wrong output, " ^ Supervisor.outcome_to_string o
       | Serve.Completed o -> Supervisor.outcome_to_string o
       | Serve.Rejected d -> Diag.to_string d)
  end;
  if served && not ok then incr wrong;
  ok

let count ok =
  incr attempted;
  if not ok then incr failed

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

(* Clients set no deadline, so nothing is shed. *)
let request ~id (p : prog) =
  Serve.request ~deadline:Float.infinity ~id (Option.get p.fn) p.inst.Progs.args

(* One closed-loop request through [Serve.serve]: (latency s, ok). *)
let serve_timed ?req srv (p : prog) =
  p.inst.Progs.prepare ();
  let id = match req with Some r -> r | None -> fresh_id () in
  let t0 = now () in
  let r = Span.with_ ~req:id "serve.serve" (fun () -> Serve.serve srv (request ~id p)) in
  let dt = now () -. t0 in
  p.lats <- dt :: p.lats;
  (dt, check p r)

(* Frontend build, auto-scheduling and the served result of a program:
   (latency s, ok, cache hit).  On a miss, the first-result time. *)
let build_and_serve srv (p : prog) =
  p.inst.Progs.prepare ();
  let id = fresh_id () in
  let t0 = now () in
  let raw = Span.with_ ~req:id "frontend.build" p.inst.Progs.build in
  p.fn <-
    Some (Span.with_ ~req:id "auto.run" (fun () -> Auto.run ~device:Types.Cpu raw));
  let r = Span.with_ ~req:id "serve.serve" (fun () -> Serve.serve srv (request ~id p)) in
  let dt = now () -. t0 in
  (dt, check p r, r.Serve.rs_hit)

(* {1 Workloads} *)

type workload = {
  w_name : string;
  latency_limit_ms : float;
      (** the limit on [latency_tail_ms] a rate must hold to count in
          [max_rate_rps] *)
}

(* Why each workload (also in BENCHMARK.json):
   - infer-hot: one closed-loop client, warm cache, default policy, the
     five paper programs at ftc default sizes in seeded shuffled round
     robin.  Request time is executor time (closures, microkernels, pool
     chunks), with no compile or queueing: it shows executor changes and
     should not move for compile, queueing or guard changes.
   - train-step: one closed-loop client, warm cache; a step serves the
     [Grad.Selective] forward then backward of subdivnet, longformer and
     softras.  The only workload running generated AD code: tapes,
     recomputation and deferred-reduction replay of [Safe_with_atomics]
     loops.
   - cold-shapes: one closed-loop client; each request builds a program
     from the frontend at a shape drawn from a skewed pool larger than the
     16-entry artifact cache, auto-schedules it and serves it, so the LRU
     both hits and evicts.  Compile-bound; infer-hot pays none of it.
   An open-loop workload (seeded Poisson arrivals batched into
   [serve_batch] under a guard policy) was tried and left out: on a 2-core
   VM its median and tail latency moved by about a third between runs.
   Batch dispatch and the guarded executor are priced per layer instead
   (pool.batch_dispatch_ratio, executor.guarded_ms.P).
   A workload's [latency_limit_ms] is fixed, set once on a 2-core VM
   several times above the workload's tail at its own load (infer-hot
   about 34 ms, train-step 19, cold-shapes 4), so [max_rate_rps] reads how
   much load it takes before queueing, not service, breaks the limit. *)
let workloads =
  [ { w_name = "infer-hot"; latency_limit_ms = 100.0 };
    { w_name = "train-step"; latency_limit_ms = 150.0 };
    { w_name = "cold-shapes"; latency_limit_ms = 50.0 } ]

let policy = Supervisor.default_policy

(* Shapes.  infer-hot: the ftc defaults.  train-step: sized so one step
   takes ten to twenty ms. *)
let train_shapes =
  Progs.
    [ Subdivnet { Sub.n_faces = 256; in_feats = 16 };
      Longformer { Lf.seq_len = 64; feat_len = 16; w = 4 };
      Softras { Sr.img = 8; n_faces = 16; sigma = 0.01 } ]

(* cold-shapes pool: five small shapes per program, 25 in all.  Draws are
   Zipf(1) over this fixed rank order (shape-major, so every program has
   hot and cold shapes); the seed decides only the draw sequence and the
   inputs, so every seed offers the same mix. *)
let cold_pool =
  List.concat
    (List.init 5 (fun k ->
         Progs.
           [ Subdivnet { Sub.n_faces = 32 + (16 * k); in_feats = 8 };
             Longformer
               { Lf.seq_len = 16 + (8 * k); feat_len = 8; w = 2 + (k / 2) };
             Softras { Sr.img = 4 + (2 * k); n_faces = 8; sigma = 0.01 };
             Gat
               { Gat.n_nodes = 16 + (8 * k); in_feats = 8; out_feats = 8;
                 avg_degree = 4 };
             Tvmlike
               { Tvm.mm_m = 8 + (4 * k); mm_n = 8 + (4 * k); mm_k = 8 + (4 * k) } ]))

(* {1 Set-up} *)

type setup = {
  srv : Serve.t;
  progs : prog list;
  tape_bytes : int;
  recomputed : int;
  first_ms : float list;  (** first results of the set-up's warm-up *)
}

(* Inputs, references, and (except cold-shapes, whose cache starts cold)
   each program's first result.  [corrupt] perturbs the first program's
   expected output. *)
let setup ~corrupt ~seed (w : workload) : setup =
  let srv = Serve.create ~policy () in
  let seed_of k = (seed * 1000) + (10 * k) and corrupt k = corrupt && k = 0 in
  let infer shapes =
    List.mapi
      (fun k sh ->
        make_prog (Progs.shape_to_string sh)
          (Progs.infer ~corrupt:(corrupt k) ~seed:(seed_of k) sh))
      shapes
  in
  let warm progs =
    List.map
      (fun p ->
        let dt, _, _ = build_and_serve srv p in
        ms dt)
      progs
  in
  let plain progs = { srv; progs; tape_bytes = 0; recomputed = 0; first_ms = warm progs } in
  match w.w_name with
  | "infer-hot" -> plain (infer Progs.defaults)
  | "cold-shapes" -> { (plain []) with progs = infer cold_pool }
  | _ ->
    let trains =
      List.mapi
        (fun k sh -> Progs.train ~corrupt:(corrupt k) ~seed:(seed_of k) sh)
        train_shapes
    in
    let progs =
      List.concat_map
        (fun t ->
          [ make_prog t.Progs.fwd.Progs.name t.Progs.fwd;
            make_prog t.Progs.bwd.Progs.name t.Progs.bwd ])
        trains
    in
    { (plain progs) with
      tape_bytes = List.fold_left (fun a t -> a + t.Progs.tape_bytes) 0 trains;
      recomputed = List.fold_left (fun a t -> a + t.Progs.recomputed) 0 trains }

(* {1 Measured loops} *)

type run = {
  reqs : (float * bool) array;
      (** per request (step), in order: latency in s, served correctly *)
  ok : int;
  miss_ms : (string * float) list;
      (** cold-shapes: (program, first-result ms) of each cache miss *)
}

let closed_loop ~seconds f =
  let reqs = ref [] and ok = ref 0 in
  let t_end = now () +. seconds in
  while now () < t_end do
    let dt, good = f () in
    count good;
    if good then incr ok;
    reqs := (dt, good) :: !reqs
  done;
  { reqs = Array.of_list (List.rev !reqs); ok = !ok; miss_ms = [] }

(* Seeded shuffled round robin. *)
let round_robin rng progs =
  let a = Array.of_list progs and q = ref [] in
  fun () ->
    if !q = [] then begin
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      q := Array.to_list a
    end;
    let p = List.hd !q in
    q := List.tl !q;
    p

let infer_hot rng st ~seconds =
  let next = round_robin rng st.progs in
  closed_loop ~seconds (fun () -> serve_timed st.srv (next ()))

(* A step is one request: it succeeds when every serve in it does. *)
let train_step st ~seconds =
  closed_loop ~seconds (fun () ->
      let req = fresh_id () in
      Span.with_ ~req "step" (fun () ->
          List.fold_left
            (fun (t, good) p ->
              let dt, ok = serve_timed ~req st.srv p in
              (t +. dt, good && ok))
            (0.0, true) st.progs))

let cold_shapes rng st ~seconds =
  let pool = Array.of_list st.progs in
  let weights = Array.init (Array.length pool) (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let draw () =
    let x = ref (Random.State.float rng total) and i = ref 0 in
    while !i < Array.length pool - 1 && !x >= weights.(!i) do
      x := !x -. weights.(!i);
      incr i
    done;
    pool.(!i)
  in
  let misses = ref [] in
  let run =
    closed_loop ~seconds (fun () ->
        let p = draw () in
        let dt, ok, hit = build_and_serve st.srv p in
        p.lats <- dt :: p.lats;
        if not hit then misses := (p.label, ms dt) :: !misses;
        (dt, ok))
  in
  { run with miss_ms = !misses }

let lats_of reqs = Array.to_list (Array.map fst reqs)
let tail_ms reqs = ms (let v, _, _ = tail (lats_of reqs) in v)

(* Consecutive windows of at least [window_min] requests.  A host stall
   delays every request in flight or queued behind it, so a tail over the
   whole run is set by the worst stall; the median of per-window tails is
   not.  With 100 requests a window's tail is about its 90th percentile. *)
let window_min = 100

let windows reqs =
  let n = Array.length reqs in
  let k = max 1 (n / window_min) in
  List.init k (fun i ->
      let a = i * n / k and b = (i + 1) * n / k in
      Array.sub reqs a (b - a))

let window_median f reqs = median (List.map f (windows reqs))

(* The workloads are closed loops with one waiting client, so they build
   no queue.  [max_rate_rps] replays the run's measured request times, in
   order, as service times through a FIFO server fed by seeded Poisson
   arrivals at each ladder rate (Lindley's recursion).  A rate passes
   when every request was served correctly, the server is busy less than
   the whole time (no growing backlog), and the windowed tail of
   [latency_tail_ms] holds the workload's latency limit.  The same
   uniform draws serve every rate, so latency only grows with the rate
   and the first failing rung ends the climb. *)
let replay_max_rate (w : workload) rng services =
  let n = Array.length services in
  let u = arrivals rng ~rate:1.0 ~n in
  let busy = Array.fold_left (fun a (s, _) -> a +. s) 0.0 services in
  let pass rate =
    let c = ref 0.0 in
    let lat =
      Array.mapi
        (fun i (si, ok) ->
          let due = u.(i) /. rate in
          c := Float.max !c due +. si;
          (!c -. due, ok))
        services
    in
    Array.for_all snd services
    && rate *. busy < float_of_int n
    && window_median tail_ms lat <= w.latency_limit_ms
  in
  let k = ref (rung_below 0.1) in
  while pass (rung (!k + 1)) && rung (!k + 1) < 1e6 do incr k done;
  rung !k

(* The measured loop for [seconds]. *)
let run_workload w rng st ~seconds =
  match w.w_name with
  | "infer-hot" -> infer_hot rng st ~seconds
  | "train-step" -> train_step st ~seconds
  | _ -> cold_shapes rng st ~seconds

(* {1 Layer pricing (traced run)}

   Layers the benchmark cannot see inside are priced by a ladder on the
   same program and inputs, measured in the same run:

     serve -> supervisor.exec -> cd_run par -> cd_run seq -> cd_run without lowering

   plus a guarded sequential [cd_run].  Each rung's self time is its
   median minus the median of the rung below. *)

let with_env name v f =
  let old = Option.value ~default:"" (Sys.getenv_opt name) in
  Unix.putenv name v;
  Fun.protect ~finally:(fun () -> Unix.putenv name old) f

let built (p : prog) =
  (match p.fn with
   | None -> p.fn <- Some (Auto.run ~device:Types.Cpu (p.inst.Progs.build ()))
   | Some _ -> ());
  Option.get p.fn

type rungs = {
  serve_ms : float;
  exec_ms : float;
  par_ms : float;
  seq_ms : float;
  nolower_ms : float;
  guarded_ms : float;
  words : float;  (** minor words of one sequential run *)
  kernels : int;  (** [Supervisor.served_kernels] of one request *)
  checks : int;   (** runtime guard checks of one guarded run *)
  mismatches : int;  (** counts whose two readings differed *)
}

let ladder st (p : prog) ~budget =
  let fn = built p and args = p.inst.Progs.args in
  let seq = Compile_exec.compile fn in
  let par = Compile_exec.compile ~parallel:true fn in
  let nolower = with_env "FT_LOWER" "0" (fun () -> Compile_exec.compile fn) in
  let grd = Compile_exec.compile ~guard:true fn in
  let sv = Supervisor.prepare ~policy fn in
  let cd (c : Compile_exec.compiled) () = c.Compile_exec.cd_run args [] in
  let serve () = Serve.serve st.srv (request ~id:0 p) in
  let fs =
    [| (fun () -> ignore (serve ())); (fun () -> ignore (Supervisor.exec sv args));
       cd par; cd seq; cd nolower; cd grd |]
  in
  let samples = Array.make (Array.length fs) [] in
  (* Interleaved rounds, every output checked; at least three rounds,
     more while the budget lasts. *)
  let t_end = now () +. budget and rounds = ref 0 in
  while !rounds < 3 || (now () < t_end && !rounds < 40) do
    incr rounds;
    Array.iteri
      (fun k f ->
        p.inst.Progs.prepare ();
        let t0 = now () in
        f ();
        samples.(k) <- (now () -. t0) :: samples.(k);
        if not (Progs.correct p.inst) then incr wrong)
      fs
  done;
  let m = Array.map (fun xs -> ms (median xs)) samples in
  (* Exact counts, each read twice.  Words and guard checks come from
     sequential rungs: [Gc.minor_words] sees only the calling domain, and
     a parallel guarded run's check counter is not exact (two readings of
     it differ on subdivnet and gat), which is reported below. *)
  let twice what f =
    let a = f () and b = f () in
    if a <> b then Printf.printf "  %s: %s differs between two readings\n" p.label what;
    (a, if a = b then 0 else 1)
  in
  let words, mw =
    twice "executor.words" (fun () ->
        p.inst.Progs.prepare ();
        let w0 = Gc.minor_words () in
        cd seq ();
        Gc.minor_words () -. w0)
  in
  let kernels, mk =
    twice "supervisor.kernels_per_req" (fun () ->
        p.inst.Progs.prepare ();
        Supervisor.served_kernels (Supervisor.exec sv args))
  in
  let guard_checks (c : Compile_exec.compiled) () =
    let g = Option.get c.Compile_exec.cd_guard in
    p.inst.Progs.prepare ();
    let s = Compile_exec.guard_snapshot g in
    cd c ();
    Compile_exec.guard_checks_since g s
  in
  let checks, mc = twice "executor.guard_checks_per_req" (guard_checks grd) in
  ignore
    (twice "parallel guard checks (informational)"
       (guard_checks (Compile_exec.compile ~guard:true ~parallel:true fn)));
  { serve_ms = m.(0); exec_ms = m.(1); par_ms = m.(2); seq_ms = m.(3);
    nolower_ms = m.(4); guarded_ms = m.(5); words; kernels; checks;
    mismatches = mw + mk + mc }

(* Compile-path stages of one program, in ms: frontend build, auto-
   scheduling, canonical hash, race verification, the two closure
   compiles the supervisor makes, and [Supervisor.prepare] as a whole. *)
let compile_stages (p : prog) =
  let t0 = now () in
  let raw = p.inst.Progs.build () in
  let t1 = now () in
  let fn = Auto.run ~device:Types.Cpu raw in
  let t2 = now () in
  ignore (Canon.canonical_hash fn);
  let t3 = now () in
  ignore (Ft_analyze.Race.check_func fn);
  let t4 = now () in
  ignore (Compile_exec.compile ~hooks:true fn);
  ignore (Compile_exec.compile ~hooks:true ~parallel:true fn);
  let t5 = now () in
  ignore (Supervisor.prepare ~policy fn);
  let t6 = now () in
  List.map ms [ t1 -. t0; t2 -. t1; t3 -. t2; t4 -. t3; t5 -. t4; t6 -. t5 ]

(* A batch through [serve_batch] against the same requests through
   [serve] one by one: serial time / batch time.  Backward programs stand
   in for their forwards, whose outputs they read. *)
let batch_dispatch_ratio st progs ~rounds =
  let ps = List.filter (fun p -> not (Filename.check_suffix p.inst.Progs.name ".fwd")) progs in
  let prep () = List.iter (fun p -> p.inst.Progs.prepare ()) ps in
  let timed f =
    prep ();
    let t0 = now () in
    f ();
    now () -. t0
  in
  let serial = ref [] and batch = ref [] in
  for _ = 1 to rounds do
    serial := timed (fun () -> List.iter (fun p -> ignore (Serve.serve st.srv (request ~id:0 p))) ps) :: !serial;
    batch :=
      timed (fun () ->
          List.iter2
            (fun p r -> ignore (check p r))
            ps
            (Serve.serve_batch st.srv (List.map (fun p -> request ~id:0 p) ps)))
      :: !batch
  done;
  median !serial /. median !batch

(* {1 Metrics} *)

let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          let rec go () =
            match input_line ic with
            | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb -> Some (kb /. 1024.0))
            | _ -> go ()
          in
          go ())
    with _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Per-program median latency, grouped by program name (cold-shapes pools
   a program's shapes), in ms. *)
let per_program_ms progs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let n = p.inst.Progs.name in
      Hashtbl.replace tbl n (p.lats @ Option.value ~default:[] (Hashtbl.find_opt tbl n)))
    progs;
  Hashtbl.fold (fun n l acc -> if l = [] then acc else (n, ms (median l)) :: acc) tbl []
  |> List.sort compare

(* End-to-end metrics, tracing off.  Why each:
   - setup_s: inputs, references, programs and their first results; the
     median of five set-ups, so work moved out of the loop into set-up
     shows.
   - req_per_s: the rate a user gets: correct requests per second of
     request time (one client, no think time); a train-step step is one
     request.
   - latency_p50_ms: the median request latency.
   - latency_tail_ms: the highest percentile with at least ten samples
     beyond it, per window of [window_min] requests, and the median over
     the windows (see [windows]).
   - success_frac: correct requests / attempted: the complement of the
     fail fraction, which [attempted] and [failed] also carry.  Reported
     this way round because no metric may read 0.
   - peak_rss_mb: the process's peak resident set, set-up included.
   - run_ms_geomean: the geometric mean over programs of each program's
     median latency, so a speed-up on a fast program counts as much as on
     a slow one.
   - first_result_ms: time from frontend build to the served result of a
     program the cache does not hold: the geometric mean over programs of
     each program's median.  cold-shapes: every cache miss in the loop (an
     evicted key pays the same path as a new one, and 25 new keys alone
     are too few to be steady); others: the set-ups' first requests.
   - max_rate_rps: the highest ladder rate holding the workload's tail
     limit with no growing backlog and no failures, replayed from the
     run's measured service times (see [replay_max_rate]). *)
let e2e_units =
  [ ("setup_s", "s"); ("req_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms"); ("success_frac", "ratio"); ("peak_rss_mb", "MB");
    ("run_ms_geomean", "ms"); ("first_result_ms", "ms"); ("max_rate_rps", "1/s") ]

let trained = [ "subdivnet"; "longformer"; "softras" ]

let prog_names =
  Progs.families @ List.concat_map (fun f -> [ f ^ ".fwd"; f ^ ".bwd" ]) trained

(* Per-layer metrics, from the traced run.  Per-program entries read 0 for
   programs the workload does not serve.  Which end-to-end metric each
   should move:
   - frontend.build_ms .. supervisor.prepare_ms: first_result_ms on
     cold-shapes (median over the workload's programs);
   - serve.hit_ratio, serve.compiles, serve.evictions: req_per_s on
     cold-shapes;
   - executor.seq_ms.P, executor.words.P, pool.par_speedup.P,
     lower.speedup.P: run_ms_geomean on infer-hot and train-step;
   - ad.tape_bytes, ad.recomputed: run_ms_geomean and peak_rss_mb on
     train-step;
   - supervisor.self_ms, serve.self_ms: latency_p50_ms on infer-hot;
   - supervisor.kernels_per_req, supervisor.retries, supervisor.degraded:
     success_frac everywhere;
   - pool.batch_dispatch_ratio, executor.guarded_ms.P,
     executor.guard_checks_per_req: no end-to-end metric here; they price
     [serve_batch] dispatch and the guarded executor, which the left-out
     open-loop workload was to exercise (see [workloads]);
   - gc.major_collections: latency_tail_ms everywhere. *)
let per_prog_units =
  [ ("executor.seq_ms", "ms"); ("executor.words", "words");
    ("pool.par_speedup", "ratio"); ("lower.speedup", "ratio");
    ("executor.guarded_ms", "ms") ]

let layer_units =
  [ ("frontend.build_ms", "ms"); ("auto.ms", "ms"); ("canon.hash_ms", "ms");
    ("race.ms", "ms"); ("executor.compile_ms", "ms");
    ("supervisor.prepare_ms", "ms"); ("serve.hit_ratio", "ratio");
    ("serve.compiles", "count"); ("serve.evictions", "count");
    ("ad.tape_bytes", "bytes"); ("ad.recomputed", "count");
    ("supervisor.self_ms", "ms"); ("serve.self_ms", "ms");
    ("supervisor.kernels_per_req", "count"); ("supervisor.retries", "count");
    ("supervisor.degraded", "count"); ("pool.batch_dispatch_ratio", "ratio");
    ("executor.guard_checks_per_req", "count");
    ("gc.major_collections", "count"); ("trace.overhead_pct", "%");
    ("counts.mismatches", "count") ]
  @ List.concat_map
      (fun (k, u) -> List.map (fun p -> (k ^ "." ^ p, u)) prog_names)
      per_prog_units

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    Printf.eprintf "perfbench: non-finite metric value %f reported as 0\n" v;
    "0"
  end

let print_result units values =
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_num (List.assoc name values)) unit)
      units
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!wrong = 0) !attempted !failed (String.concat ", " metrics)

(* One line per window, then the window tails on one line that run.py
   reads to take the median over the windows of all its processes. *)
let report_tail reqs =
  List.iteri
    (fun i w ->
      let v, pct, n = tail (lats_of w) in
      Printf.printf "  window %d: tail = p%.2f = %.3f ms (%d samples, 10 beyond)\n"
        i pct (ms v) n)
    (windows reqs);
  Printf.printf "windows latency_tail_ms %s\n"
    (String.concat " " (List.map (fun w -> Printf.sprintf "%.17g" (tail_ms w)) (windows reqs)))

(* {1 Runs} *)

(* A fresh process runs parallel regions much slower for its first few
   seconds on a 2-core VM (about 70 ms, then 25 ms, for a gat request),
   and how long that lasts varies from run to run.  Every run therefore
   first drives the workload, untimed and on a set-up of its own, for
   [warmup_s] (or [seconds], if shorter); its outputs are still checked. *)
let warmup_s = 4.0

let warm_up (w : workload) ~corrupt ~seed ~seconds =
  let rng = Random.State.make [| seed; 1 |] in
  let a = !attempted and f = !failed in
  ignore
    (run_workload w rng (setup ~corrupt ~seed w)
       ~seconds:(Float.min warmup_s seconds));
  attempted := a;
  failed := f

let untraced (w : workload) rng ~corrupt ~seed ~seconds =
  warm_up w ~corrupt ~seed ~seconds;
  let setups =
    List.init 5 (fun _ ->
        let t0 = now () in
        let st = setup ~corrupt ~seed w in
        (now () -. t0, st))
  in
  let st = snd (List.nth setups 4) in
  (* Each program's median first result over the set-ups. *)
  let first_setup_ms =
    List.mapi
      (fun k _ -> median (List.map (fun (_, s) -> List.nth s.first_ms k) setups))
      st.first_ms
  in
  let run = run_workload w rng st ~seconds in
  let per_prog = per_program_ms st.progs in
  List.iter (fun (n, v) -> Printf.printf "  %s: median %.3f ms\n" n v) per_prog;
  report_tail run.reqs;
  let max_rate = replay_max_rate w rng run.reqs in
  let busy = Array.fold_left (fun a (l, _) -> a +. l) 0.0 run.reqs in
  Printf.printf "  latency limit for max_rate_rps: %.0f ms\n" w.latency_limit_ms;
  print_result e2e_units
    [ ("setup_s", median (List.map fst setups));
      ("req_per_s", float_of_int run.ok /. busy);
      ("latency_p50_ms", ms (median (lats_of run.reqs)));
      ("latency_tail_ms", window_median tail_ms run.reqs);
      ("success_frac", float_of_int run.ok /. float_of_int (max 1 !attempted));
      ("peak_rss_mb", peak_rss_mb ());
      ("run_ms_geomean", geomean (List.map snd per_prog));
      ("first_result_ms",
       geomean
         (if run.miss_ms = [] then first_setup_ms
          else
            List.map
              (fun l -> median (List.filter_map (fun (l', v) -> if l = l' then Some v else None) run.miss_ms))
              (List.sort_uniq compare (List.map fst run.miss_ms))));
      ("max_rate_rps", max_rate) ]

let traced (w : workload) rng ~corrupt ~seed ~seconds ~spans_path =
  warm_up w ~corrupt ~seed ~seconds;
  Span.on := true;
  let origin = now () in
  let st = setup ~corrupt ~seed w in
  let stats () = Serve.stats_copy (Serve.stats st.srv) in
  let s0 = stats () and g0 = (Gc.quick_stat ()).Gc.major_collections in
  (* Alternate untraced and traced slices of the loop: the difference of
     their medians is the tracing overhead. *)
  let slice = seconds /. 6.0 in
  let slices =
    List.init 4 (fun k ->
        Span.on := k mod 2 = 1;
        (k mod 2 = 1, run_workload w rng st ~seconds:slice))
  in
  Span.on := false;
  let s1 = stats () and g1 = (Gc.quick_stat ()).Gc.major_collections in
  let lats on =
    List.concat_map (fun (t, r) -> if t = on then lats_of r.reqs else []) slices
  in
  let overhead = 100.0 *. ((median (lats true) /. median (lats false)) -. 1.0) in
  (* Price the layers on the hottest program of each kind: cold-shapes'
     first shape of each program, every program elsewhere. *)
  let priced =
    if w.w_name = "cold-shapes" then List.filteri (fun i _ -> i < 5) st.progs else st.progs
  in
  let budget = seconds /. 2.0 /. float_of_int (List.length priced) in
  let ladders = List.map (fun p -> (p.inst.Progs.name, ladder st p ~budget)) priced in
  let stages =
    List.map (fun p -> List.init 5 (fun _ -> compile_stages p)) st.progs
    |> List.map (fun reps -> List.init 6 (fun k -> median (List.map (fun r -> List.nth r k) reps)))
  in
  let stage k = median (List.map (fun s -> List.nth s k) stages) in
  let ratio = batch_dispatch_ratio st priced ~rounds:5 in
  Span.write ~origin spans_path;
  List.iter
    (fun (name, (n, total, self)) ->
      Printf.printf "  span %-22s n=%-6d total %10.3f ms  self %10.3f ms\n" name n (ms total) (ms self))
    (Span.summary ());
  Printf.printf "  spans written to %s\n" spans_path;
  let mean_of f = mean (List.map (fun (_, l) -> f l) ladders) in
  let per_prog key f =
    List.map
      (fun p ->
        (key ^ "." ^ p, match List.assoc_opt p ladders with Some l -> f l | None -> 0.0))
      prog_names
  in
  let d a b = float_of_int (a - b) in
  let lookups = d s1.Serve.st_hits s0.Serve.st_hits +. d s1.Serve.st_misses s0.Serve.st_misses in
  let mismatches = List.fold_left (fun a (_, l) -> a + l.mismatches) 0 ladders in
  if mismatches > 0 then
    Printf.printf "  WARNING: %d count(s) differed between two readings\n" mismatches;
  print_result layer_units
    ([ ("frontend.build_ms", stage 0); ("auto.ms", stage 1); ("canon.hash_ms", stage 2);
       ("race.ms", stage 3); ("executor.compile_ms", stage 4);
       ("supervisor.prepare_ms", stage 5);
       ("serve.hit_ratio", d s1.Serve.st_hits s0.Serve.st_hits /. Float.max 1.0 lookups);
       ("serve.compiles", d s1.Serve.st_compiles s0.Serve.st_compiles);
       ("serve.evictions", d s1.Serve.st_evictions s0.Serve.st_evictions);
       ("ad.tape_bytes", float_of_int st.tape_bytes);
       ("ad.recomputed", float_of_int st.recomputed);
       ("supervisor.self_ms", mean_of (fun l -> l.exec_ms -. l.par_ms));
       ("serve.self_ms", mean_of (fun l -> l.serve_ms -. l.exec_ms));
       ("supervisor.kernels_per_req", mean_of (fun l -> float_of_int l.kernels));
       ("supervisor.retries", d s1.Serve.st_retried s0.Serve.st_retried);
       ("supervisor.degraded", d s1.Serve.st_degraded s0.Serve.st_degraded);
       ("pool.batch_dispatch_ratio", ratio);
       ("executor.guard_checks_per_req", mean_of (fun l -> float_of_int l.checks));
       ("gc.major_collections", float_of_int (g1 - g0));
       ("trace.overhead_pct", overhead);
       ("counts.mismatches", float_of_int mismatches) ]
    @ per_prog "executor.seq_ms" (fun l -> l.seq_ms)
    @ per_prog "executor.words" (fun l -> l.words)
    @ per_prog "pool.par_speedup" (fun l -> l.seq_ms /. l.par_ms)
    @ per_prog "lower.speedup" (fun l -> l.nolower_ms /. l.seq_ms)
    @ per_prog "executor.guarded_ms" (fun l -> l.guarded_ms))

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let corrupt = ref false and spans_dir = ref "perfbench/out" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME infer-hot | train-step | cold-shapes");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--spans-dir", Arg.Set_string spans_dir, "DIR where the traced run writes its spans");
      ("--corrupt-reference", Arg.Set corrupt,
       " perturb one expected output (self-test: the run must fail)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let rng = Random.State.make [| !seed |] in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" w.w_name !seed !seconds !trace;
  Printf.printf "host: nproc=%d pool=%d ocaml=%s flambda=%b\n"
    (Ft_machine.Machine.host_cores ()) (Exec_par.num_domains ()) Sys.ocaml_version
    Build_info.flambda;
  if !trace = 0 then untraced w rng ~corrupt:!corrupt ~seed:!seed ~seconds:!seconds
  else begin
    (try Unix.mkdir !spans_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let spans_path =
      Filename.concat !spans_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.w_name !seed)
    in
    traced w rng ~corrupt:!corrupt ~seed:!seed ~seconds:!seconds ~spans_path
  end;
  exit (if !wrong = 0 then 0 else 1)
