(* Multi-tenant serving layer: artifact cache, batching, budgets.

   Load-bearing properties, at fuzz scale (QCHECK_COUNT):
   - N domains allocating under one shared scoped budget never observe
     the live counter above the cap, and it returns to zero once every
     chunk has freed its allocations;
   - random parallel programs served through a *cached* artifact at pool
     sizes {1, 2, 8} stay bitwise-identical to fresh fault-free compiles
     of the serving backend.

   Plus deterministic units: LRU bounds and recency, shape
   specialization and per-size-binding cache keys, hit/miss accounting,
   invalidation on demotion, batch grouping with responses in request
   order, admission control against the memory budget, and per-request
   guard-check deltas for reused artifacts. *)

open Ft_ir
open Ft_runtime
module Exec_par = Ft_backend.Exec_par
module Supervisor = Ft_backend.Supervisor
module Machine = Ft_machine.Machine
module Serve = Ft_serve.Serve
module Lru = Ft_serve.Lru
module Breaker = Ft_serve.Breaker
module Edfq = Ft_serve.Edfq
module Snapshot = Ft_serve.Snapshot

let n = Gen_prog.iterations
let () = Ft_backend.Compile_exec.race_logger := ignore

let i = Expr.int
let v = Expr.var

let bits_equal t1 t2 =
  Tensor.shape t1 = Tensor.shape t2
  && (let ok = ref true in
      for k = 0 to Tensor.numel t1 - 1 do
        if
          Int64.bits_of_float (Tensor.get_flat_f t1 k)
          <> Int64.bits_of_float (Tensor.get_flat_f t2 k)
        then ok := false
      done;
      !ok)

let outs_bits_equal (y1, z1) (y2, z2) = bits_equal y1 y2 && bits_equal z1 z2

let with_domains k f =
  let saved = Exec_par.num_domains () in
  Exec_par.set_num_domains k;
  Fun.protect ~finally:(fun () -> Exec_par.set_num_domains saved) f

let completed (r : Serve.response) =
  match r.Serve.rs_status with
  | Serve.Completed o -> o
  | Serve.Rejected d -> Alcotest.failf "rejected: %s" (Diag.to_string d)

(* ------------------------------------------------------------------ *)
(* Shared budget across domains                                       *)

(* Chunk bodies allocate concurrently under one scoped budget, freeing
   at chunk end.  The cap must never be (observably) exceeded, an OOM
   refusal must credit back what it charged, and draining every chunk
   must return the counter to exactly zero. *)
let check_shared_budget (domains, chunks, seed) =
  with_domains domains (fun () ->
      let cap = 4096 in
      let violated = Atomic.make false in
      Tensor.with_budget ~fn:"prop" cap (fun () ->
          Exec_par.run_chunks chunks (fun c ->
              let allocs = ref [] in
              let k = 1 + ((seed + (c * 37)) mod 8) in
              for a = 0 to k - 1 do
                let len = 16 * (1 + ((seed + (c * 13) + (a * 7)) mod 16)) in
                (match Tensor.create Types.F32 [| len |] with
                 | t -> allocs := t :: !allocs
                 | exception Diag.Diag_error _ -> ());
                if Tensor.live_bytes () > cap then Atomic.set violated true
              done;
              List.iter Tensor.arena_free !allocs);
          (not (Atomic.get violated)) && Tensor.live_bytes () = 0))

let prop_shared_budget =
  QCheck2.Test.make ~count:(n 50)
    ~name:
      "N domains under one shared budget: cap never exceeded, counter \
       drains to zero"
    QCheck2.Gen.(triple (int_range 1 4) (int_range 2 16) (int_bound 99999))
    check_shared_budget

(* ------------------------------------------------------------------ *)
(* Cached artifacts across pool sizes                                 *)

let all_backends =
  [ Supervisor.Parallel; Supervisor.Compiled; Supervisor.Interp_ref ]

let references fn =
  List.map
    (fun b ->
      let args = Gen_prog.fresh_args () in
      let policy =
        { Supervisor.default_policy with Supervisor.backends = [ b ] }
      in
      let oc = Supervisor.run ~policy fn args in
      if oc.Supervisor.result <> Some b then
        Alcotest.failf "fault-free %s run did not serve"
          (Supervisor.backend_name b);
      (b, Gen_prog.outputs args))
    all_backends

let check_cached_pool_sizes fn =
  let refs = references fn in
  let srv = Serve.create ~policy:Supervisor.default_policy () in
  List.for_all
    (fun d ->
      with_domains d (fun () ->
          let args = Gen_prog.fresh_args () in
          let r = Serve.serve srv (Serve.request ~id:d fn args) in
          let o = completed r in
          (* first pool size compiles; the rest must reuse the artifact *)
          r.Serve.rs_hit = (d <> 1)
          &&
          match o.Supervisor.result with
          | Some b ->
            outs_bits_equal (Gen_prog.outputs args) (List.assoc b refs)
          | None -> false))
    [ 1; 2; 8 ]

let prop_cached_pool_sizes =
  QCheck2.Test.make ~count:(n 15)
    ~name:
      "random parallel programs: cached artifacts at pool sizes {1,2,8} \
       bitwise-match fresh compiles"
    Gen_prog.gen_par_func check_cached_pool_sizes

(* ------------------------------------------------------------------ *)
(* LRU units                                                          *)

let test_lru () =
  let l = Lru.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Lru.capacity l);
  Alcotest.(check bool) "no eviction under capacity" true
    (Lru.add l "a" 1 = None && Lru.add l "b" 2 = None);
  (* touching [a] makes [b] the LRU casualty of the next insert *)
  Alcotest.(check (option int)) "find touches" (Some 1) (Lru.find l "a");
  (match Lru.add l "c" 3 with
   | Some ("b", 2) -> ()
   | Some (k, _) -> Alcotest.failf "evicted %s, wanted b" k
   | None -> Alcotest.fail "no eviction at capacity");
  Alcotest.(check bool) "b gone, a and c live" true
    ((not (Lru.mem l "b")) && Lru.mem l "a" && Lru.mem l "c");
  (* replacing is not an insert: no eviction, value updated, MRU *)
  Alcotest.(check bool) "replace evicts nothing" true
    (Lru.add l "a" 10 = None);
  Alcotest.(check (option int)) "replaced value" (Some 10) (Lru.find l "a");
  Alcotest.(check (list (pair string int))) "MRU order"
    [ ("a", 10); ("c", 3) ] (Lru.to_list l);
  Lru.remove l "a";
  Alcotest.(check int) "remove drops" 1 (Lru.length l);
  (match Lru.create ~capacity:0 with
   | _ -> Alcotest.fail "capacity 0 accepted"
   | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Shape specialization and cache keys                                *)

(* y[a] = 2*x[a] over a free size variable n. *)
let sized_fn () =
  Stmt.func "sized"
    [ Stmt.param "x" Types.F32 [ v "n" ];
      Stmt.param ~atype:Types.Output "y" Types.F32 [ v "n" ] ]
    (Stmt.for_ "a" (i 0) (v "n")
       (Stmt.store "y" [ v "a" ]
          (Expr.mul (Expr.load "x" [ v "a" ]) (Expr.float 2.))))

let sized_args numel =
  [ ("x", Tensor.rand ~seed:5 Types.F32 [| numel |]);
    ("y", Tensor.zeros Types.F32 [| numel |]) ]

let check_doubled args =
  let x = List.assoc "x" args and y = List.assoc "y" args in
  for k = 0 to Tensor.numel y - 1 do
    if
      Int64.bits_of_float (2. *. Tensor.get_flat_f x k)
      <> Int64.bits_of_float (Tensor.get_flat_f y k)
    then Alcotest.fail "served result is not 2*x"
  done

let test_specialization () =
  let fn = sized_fn () in
  let srv = Serve.create ~policy:Supervisor.default_policy () in
  Alcotest.(check bool) "size bindings key separately" true
    (Serve.key_of srv ~sizes:[ ("n", 8) ] fn
     <> Serve.key_of srv ~sizes:[ ("n", 16) ] fn);
  let serve numel sizes =
    let args = sized_args numel in
    let r = Serve.serve srv (Serve.request ~sizes ~id:numel fn args) in
    ignore (completed r);
    check_doubled args;
    r
  in
  let r1 = serve 8 [ ("n", 8) ] in
  let r2 = serve 8 [ ("n", 8) ] in
  let r3 = serve 16 [ ("n", 16) ] in
  Alcotest.(check bool) "miss, hit, miss" true
    ((not r1.Serve.rs_hit) && r2.Serve.rs_hit && not r3.Serve.rs_hit);
  let st = Serve.stats srv in
  Alcotest.(check int) "hits" 1 st.Serve.st_hits;
  Alcotest.(check int) "compiles" 2 st.Serve.st_compiles;
  Alcotest.(check int) "distinct keys" 2 (Serve.distinct_keys srv);
  Alcotest.(check int) "all served clean" 3 st.Serve.st_served_clean

let test_lru_eviction_recompiles () =
  let fn = sized_fn () in
  let srv = Serve.create ~capacity:1 ~policy:Supervisor.default_policy () in
  let serve numel =
    ignore
      (completed
         (Serve.serve srv
            (Serve.request ~sizes:[ ("n", numel) ] ~id:numel fn
               (sized_args numel))))
  in
  serve 8;
  serve 16;  (* evicts n=8 *)
  serve 8;   (* recompiles *)
  let st = Serve.stats srv in
  Alcotest.(check int) "evictions" 2 st.Serve.st_evictions;
  Alcotest.(check int) "compiles" 3 st.Serve.st_compiles;
  Alcotest.(check int) "distinct keys stay 2" 2 (Serve.distinct_keys srv)

(* ------------------------------------------------------------------ *)
(* Invalidation on demotion                                           *)

let test_invalidate_on_demotion () =
  let fn = sized_fn () in
  let srv = Serve.create ~policy:Supervisor.default_policy () in
  let serve ?plan id =
    completed
      (Serve.serve srv
         (Serve.request ~sizes:[ ("n", 8) ] ?plan ~id fn (sized_args 8)))
  in
  ignore (serve 0);
  (* an injected OOM on the first kernel demotes parallel -> compiled:
     the artifact's primary is suspect, so the entry is dropped *)
  let o =
    serve ~plan:(Machine.Fault_plan.of_list [ (0, Machine.F_oom) ]) 1
  in
  Alcotest.(check bool) "demoted" true o.Supervisor.degraded;
  let st = Serve.stats srv in
  Alcotest.(check int) "invalidated" 1 st.Serve.st_invalidations;
  (* next request recompiles fresh, then the one after hits again *)
  ignore (serve 2);
  ignore (serve 3);
  Alcotest.(check int) "compiles" 2 st.Serve.st_compiles;
  Alcotest.(check int) "hits" 2 st.Serve.st_hits;
  Alcotest.(check int) "degraded count" 1 st.Serve.st_degraded

(* ------------------------------------------------------------------ *)
(* Batching                                                           *)

let test_batch_grouping () =
  let fn = sized_fn () in
  let srv = Serve.create ~policy:Supervisor.default_policy () in
  (* interleaved size bindings: grouping is by cache key, responses come
     back in request order *)
  let mk id numel =
    Serve.request ~sizes:[ ("n", numel) ] ~id fn (sized_args numel)
  in
  let rqs = [ mk 0 8; mk 1 16; mk 2 8; mk 3 16; mk 4 8 ] in
  let rs = Serve.serve_batch srv rqs in
  Alcotest.(check (list int)) "request order preserved" [ 0; 1; 2; 3; 4 ]
    (List.map (fun r -> r.Serve.rs_id) rs);
  List.iter (fun r -> ignore (completed r)) rs;
  Alcotest.(check (list (pair int int))) "two groups: sizes 3 and 2"
    [ (2, 1); (3, 1) ]
    (Serve.batch_histogram srv);
  let st = Serve.stats srv in
  (* one compile per group, the rest hits *)
  Alcotest.(check int) "compiles" 2 st.Serve.st_compiles;
  Alcotest.(check int) "hits" 3 st.Serve.st_hits

(* ------------------------------------------------------------------ *)
(* Admission control                                                  *)

let test_admission_control () =
  let fn = sized_fn () in
  let policy =
    { Supervisor.default_policy with Supervisor.mem_budget_bytes = Some 16 }
  in
  let srv = Serve.create ~policy () in
  let r =
    Serve.serve srv
      (Serve.request ~sizes:[ ("n", 8) ] ~id:0 fn (sized_args 8))
  in
  (match r.Serve.rs_status with
   | Serve.Rejected d ->
     Alcotest.(check string) "oom diagnostic" "oom"
       (Diag.code_to_string d.Diag.dg_code)
   | Serve.Completed _ -> Alcotest.fail "oversized request admitted");
  let st = Serve.stats srv in
  Alcotest.(check int) "rejected" 1 st.Serve.st_rejected;
  Alcotest.(check int) "never compiled" 0 st.Serve.st_compiles;
  Alcotest.(check bool) "not served" false (Serve.served r)

(* ------------------------------------------------------------------ *)
(* Guard-check deltas for reused artifacts                            *)

(* Indirect store through idx (no mod: a bare loaded index is beyond the
   static prover, so the site keeps a runtime check that fires every
   request; idx values are generated in-bounds). *)
let indirect_fn () =
  Stmt.func "indirect"
    [ Stmt.param "x" Types.F32 [ i 12 ];
      Stmt.param "idx" Types.I32 [ i 12 ];
      Stmt.param ~atype:Types.Output "y" Types.F32 [ i 12 ] ]
    (Stmt.for_ "a" (i 0) (i 12)
       (Stmt.store "y"
          [ Expr.load "idx" [ v "a" ] ]
          (Expr.load "x" [ v "a" ])))

let test_guard_delta_per_request () =
  let fn = indirect_fn () in
  let policy = { Supervisor.default_policy with Supervisor.guard = true } in
  let srv = Serve.create ~policy () in
  let args () =
    [ ("x", Tensor.rand ~seed:7 Types.F32 [| 12 |]);
      ("idx", Tensor.randint ~seed:8 ~lo:0 ~hi:12 Types.I32 [| 12 |]);
      ("y", Tensor.zeros Types.F32 [| 12 |]) ]
  in
  let r1 = Serve.serve srv (Serve.request ~id:0 fn (args ())) in
  let r2 = Serve.serve srv (Serve.request ~id:1 fn (args ())) in
  ignore (completed r1);
  ignore (completed r2);
  Alcotest.(check bool) "runtime checks executed" true
    (r1.Serve.rs_guard_checks > 0);
  (* regression: the raw counter accumulates across runs of the cached
     artifact; the per-request report must be a snapshot delta, not the
     ever-growing total *)
  Alcotest.(check int) "second request reports its own work, not the total"
    r1.Serve.rs_guard_checks r2.Serve.rs_guard_checks;
  Alcotest.(check bool) "second request hit the cache" true
    r2.Serve.rs_hit

(* ------------------------------------------------------------------ *)
(* Soak determinism                                                   *)

let test_soak_deterministic_arrivals () =
  let fn = sized_fn () in
  let run () =
    let srv = Serve.create ~policy:Supervisor.default_policy () in
    let args = sized_args 8 in
    let pristine = List.map (fun (n, t) -> (n, Tensor.copy t)) args in
    let make_request j =
      List.iter
        (fun (n, s) -> Tensor.copy_into ~src:s ~dst:(List.assoc n args))
        pristine;
      Serve.request ~sizes:[ ("n", 8) ] ~id:j fn args
    in
    let cfg =
      Serve.soak_cfg ~seed:42 ~requests:60 ~rate:1000.0 ~batch:4 ()
    in
    Serve.soak srv ~cfg ~make_request
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "all served" 60 r1.Serve.sk_served_clean;
  Alcotest.(check int) "one compile" 1 r1.Serve.sk_compiles;
  Alcotest.(check int) "no recompiles after warmup" 0
    r1.Serve.sk_recompiles_after_warmup;
  Alcotest.(check bool) "steady-state hit rate 1.0" true
    (r1.Serve.sk_hit_rate = 1.0);
  (* wall-clock service times differ run to run, but the seeded arrival
     process and everything derived from counters must not *)
  Alcotest.(check int) "deterministic clean count"
    r1.Serve.sk_served_clean r2.Serve.sk_served_clean;
  Alcotest.(check int) "deterministic compiles" r1.Serve.sk_compiles
    r2.Serve.sk_compiles

(* A restarted server's soak numbers requests from the crash point, so
   request ids need not equal the stream index: responses must still be
   matched to their stream slot. *)
let test_soak_offset_ids () =
  let fn = sized_fn () in
  let srv = Serve.create ~policy:Supervisor.default_policy () in
  let args = sized_args 8 in
  let first = 1000 in
  let make_request j =
    Serve.request ~sizes:[ ("n", 8) ] ~id:(first + j) fn args
  in
  let ids = ref [] in
  let on_response j r = ids := (j, r.Serve.rs_id) :: !ids in
  let cfg = Serve.soak_cfg ~seed:42 ~requests:30 ~rate:1000.0 ~batch:4 () in
  let r = Serve.soak ~on_response srv ~cfg ~make_request in
  Alcotest.(check int) "all served" 30 r.Serve.sk_served_clean;
  Alcotest.(check int) "every request answered" 30 (List.length !ids);
  List.iter
    (fun (j, id) -> Alcotest.(check int) "response of slot j" (first + j) id)
    !ids

(* ------------------------------------------------------------------ *)
(* LRU edge cases                                                     *)

let test_lru_edge_cases () =
  (* capacity 1: every insert evicts the previous entry *)
  let l = Lru.create ~capacity:1 in
  Alcotest.(check bool) "first insert no eviction" true
    (Lru.add l "a" 1 = None);
  (match Lru.add l "b" 2 with
   | Some ("a", 1) -> ()
   | _ -> Alcotest.fail "capacity-1 insert must evict the previous entry");
  Alcotest.(check (list (pair string int))) "only b" [ ("b", 2) ]
    (Lru.to_list l);
  Lru.remove l "b";
  Alcotest.(check bool) "insert after remove evicts nothing" true
    (Lru.add l "c" 3 = None);
  (* interleaved touch / invalidate: eviction tracks recency exactly *)
  let l = Lru.create ~capacity:3 in
  ignore (Lru.add l "a" 1);
  ignore (Lru.add l "b" 2);
  ignore (Lru.add l "c" 3);
  ignore (Lru.find l "a");  (* order: a, c, b *)
  Lru.remove l "c";         (* invalidation: a, b *)
  ignore (Lru.add l "d" 4); (* under capacity again: d, a, b *)
  ignore (Lru.find l "b");  (* b, d, a *)
  (match Lru.add l "e" 5 with
   | Some ("a", 1) -> ()
   | Some (k, _) -> Alcotest.failf "evicted %s, wanted a" k
   | None -> Alcotest.fail "expected an eviction");
  Alcotest.(check (list (pair string int))) "MRU order after churn"
    [ ("e", 5); ("b", 2); ("d", 4) ]
    (Lru.to_list l)

let check_lru_occupancy (cap, ops) =
  let l = Lru.create ~capacity:cap in
  List.for_all
    (fun op ->
      let key = "k" ^ string_of_int (op mod 7) in
      (match op mod 3 with
       | 0 -> ignore (Lru.add l key op)
       | 1 -> ignore (Lru.find l key)
       | _ -> Lru.remove l key);
      let len = Lru.length l in
      len <= cap && List.length (Lru.to_list l) = len)
    ops

let prop_lru_occupancy =
  QCheck2.Test.make ~count:(n 100)
    ~name:
      "LRU occupancy never exceeds capacity under random add/find/remove"
    QCheck2.Gen.(
      pair (int_range 1 4) (list_size (int_range 1 40) (int_bound 1000)))
    check_lru_occupancy

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                    *)

(* K = 2 consecutive demotions trip the key; while tripped, requests are
   fallback-served off the *cached* artifact (compile count flat, no
   invalidations); after cooldown = 2 fallback requests a probe decides:
   still faulty -> re-trip, healthy -> recovery and primary service. *)
let test_breaker_trip_and_recovery () =
  let fn = sized_fn () in
  let overload =
    { Serve.default_overload with
      Serve.ov_breaker_k = 2;
      ov_breaker_cooldown = 2 }
  in
  let srv = Serve.create ~overload ~policy:Supervisor.default_policy () in
  let key = Serve.key_of srv ~sizes:[ ("n", 8) ] fn in
  let oom () = Machine.Fault_plan.of_list [ (0, Machine.F_oom) ] in
  let serve ?plan id =
    completed
      (Serve.serve srv
         (Serve.request ~sizes:[ ("n", 8) ] ?plan ~id fn (sized_args 8)))
  in
  let st = Serve.stats srv in
  (* demotion 1: breaker still closed, so the artifact is invalidated *)
  let o0 = serve ~plan:(oom ()) 0 in
  Alcotest.(check bool) "r0 demoted" true o0.Supervisor.degraded;
  Alcotest.(check int) "r0 invalidated" 1 st.Serve.st_invalidations;
  (* demotion 2 (on the recompiled artifact): trips; artifact kept *)
  let o1 = serve ~plan:(oom ()) 1 in
  Alcotest.(check bool) "r1 demoted" true o1.Supervisor.degraded;
  Alcotest.(check bool) "tripped" true
    (Serve.breaker_state srv key = Breaker.Open);
  Alcotest.(check int) "the trip keeps the artifact" 1
    st.Serve.st_invalidations;
  Alcotest.(check int) "one trip" 1 (Serve.breaker_trips srv);
  Alcotest.(check int) "compiles before fallback phase" 2
    st.Serve.st_compiles;
  (* cooldown: two fallback-served cache hits, no recompiles *)
  let o2 = serve 2 in
  let o3 = serve 3 in
  Alcotest.(check bool) "fallback serves below the primary" true
    (o2.Supervisor.degraded && o3.Supervisor.degraded
    && o2.Supervisor.result <> None
    && o3.Supervisor.result <> None);
  Alcotest.(check int) "compile count flat while tripped" 2
    st.Serve.st_compiles;
  Alcotest.(check int) "fallbacks hit the cached artifact" 2
    st.Serve.st_hits;
  (* probe still faulting: re-trip, still no invalidation *)
  let o4 = serve ~plan:(oom ()) 4 in
  Alcotest.(check bool) "probe demoted" true o4.Supervisor.degraded;
  Alcotest.(check int) "re-trip" 2 (Serve.breaker_trips srv);
  Alcotest.(check int) "probe failure keeps the artifact" 1
    st.Serve.st_invalidations;
  (* second cooldown, then a healthy probe recovers the primary *)
  ignore (serve 5);
  ignore (serve 6);
  let o7 = serve 7 in
  Alcotest.(check bool) "probe served clean by the primary" true
    ((not o7.Supervisor.degraded) && o7.Supervisor.result <> None);
  Alcotest.(check int) "one recovery" 1 (Serve.breaker_recoveries srv);
  Alcotest.(check bool) "closed again" true
    (Serve.breaker_state srv key = Breaker.Closed);
  let o8 = serve 8 in
  Alcotest.(check bool) "primary service restored" true
    (not o8.Supervisor.degraded);
  Alcotest.(check int) "total compiles across the whole episode" 2
    st.Serve.st_compiles

(* ------------------------------------------------------------------ *)
(* Snapshot framing                                                   *)

let with_temp_file f =
  let path = Filename.temp_file "ft-snap" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_snapshot_roundtrip_and_corruption () =
  with_temp_file (fun path ->
      Sys.remove path;
      (match Snapshot.read ~path with
       | Snapshot.Absent -> ()
       | _ -> Alcotest.fail "missing file must read Absent");
      let records = [ "alpha"; ""; "third\trecord" ] in
      Snapshot.write ~path records;
      (match Snapshot.read ~path with
       | Snapshot.Loaded l ->
         Alcotest.(check (list string)) "roundtrip" records l
       | _ -> Alcotest.fail "verified roundtrip failed");
      (* single bit flipped in a payload: the record CRC catches it *)
      Snapshot.corrupt_bitflip ~path;
      (match Snapshot.read ~path with
       | Snapshot.Corrupt reason ->
         Alcotest.(check bool) "reason mentions CRC" true
           (String.length reason > 0)
       | _ -> Alcotest.fail "bit flip went undetected");
      (* torn write: framing catches the truncation *)
      Snapshot.write ~path records;
      Snapshot.corrupt_truncate ~bytes:3 ~path ();
      (match Snapshot.read ~path with
       | Snapshot.Corrupt _ -> ()
       | _ -> Alcotest.fail "truncation went undetected");
      (* wrong magic *)
      Snapshot.write ~path records;
      let data = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string data in
      Bytes.set b 0 'X';
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc b);
      (match Snapshot.read ~path with
       | Snapshot.Corrupt _ -> ()
       | _ -> Alcotest.fail "bad magic went undetected"))

(* ------------------------------------------------------------------ *)
(* Warm start from a snapshot                                         *)

let test_snapshot_warm_start () =
  with_temp_file (fun path ->
      let fn = sized_fn () in
      let policy = Supervisor.default_policy in
      let srv1 = Serve.create ~policy () in
      ignore
        (completed
           (Serve.serve srv1
              (Serve.request ~sizes:[ ("n", 8) ] ~id:0 fn (sized_args 8))));
      ignore
        (completed
           (Serve.serve srv1
              (Serve.request ~sizes:[ ("n", 16) ] ~id:1 fn (sized_args 16))));
      Alcotest.(check int) "two records saved" 2
        (Serve.save_snapshot srv1 ~path);
      let hash = Canon.canonical_hash fn in
      let resolve h = if h = hash then Some fn else None in
      (* warm start re-prepares both entries *)
      let srv2 = Serve.create ~policy () in
      let w = Serve.load_snapshot srv2 ~path ~resolve in
      Alcotest.(check bool) "present and verified" true
        (w.Serve.ws_present && w.Serve.ws_corrupt = None);
      Alcotest.(check int) "both loaded" 2 w.Serve.ws_loaded;
      Alcotest.(check int) "cache occupancy" 2 (Serve.cache_length srv2);
      let st = Serve.stats srv2 in
      (* compiles counts actual prepares (warm start included); misses
         counts lookups, and no request has missed yet *)
      Alcotest.(check int) "warm-start compiles" 2 st.Serve.st_compiles;
      Alcotest.(check int) "no misses" 0 st.Serve.st_misses;
      (* first request after warm start is a hit and serves correctly *)
      let args = sized_args 8 in
      let r =
        Serve.serve srv2 (Serve.request ~sizes:[ ("n", 8) ] ~id:0 fn args)
      in
      ignore (completed r);
      check_doubled args;
      Alcotest.(check bool) "first request hits warm cache" true
        r.Serve.rs_hit;
      Alcotest.(check int) "still no misses" 0 st.Serve.st_misses;
      (* an unresolvable hash is skipped, never fatal *)
      let srv3 = Serve.create ~policy () in
      let w3 = Serve.load_snapshot srv3 ~path ~resolve:(fun _ -> None) in
      Alcotest.(check int) "all skipped" 2 w3.Serve.ws_skipped;
      Alcotest.(check int) "none loaded" 0 w3.Serve.ws_loaded;
      (* corruption is detected and yields a cold start, not a crash *)
      Snapshot.corrupt_bitflip ~path;
      let srv4 = Serve.create ~policy () in
      let w4 = Serve.load_snapshot srv4 ~path ~resolve in
      Alcotest.(check bool) "corruption detected" true
        (w4.Serve.ws_corrupt <> None);
      Alcotest.(check int) "cold cache" 0 (Serve.cache_length srv4))

(* ------------------------------------------------------------------ *)
(* EDF ordering and deadline shedding                                 *)

let test_edf_and_shedding () =
  let fn = sized_fn () in
  let srv = Serve.create ~policy:Supervisor.default_policy () in
  let est = Serve.modeled_service srv ~sizes:[ ("n", 8) ] fn in
  Alcotest.(check bool) "model has a service estimate" true (est > 0.0);
  let mk id deadline =
    Serve.request ~sizes:[ ("n", 8) ] ~deadline ~id fn (sized_args 8)
  in
  (* Arrival order: loose, tight, medium, barely-too-tight.  EDF serves
     the tight deadline first (backlog est), then medium (2 est); the
     2.6 est deadline would complete at 3 est -> shed; the loose one
     serves last.  Under FIFO the tight deadline would be missed
     instead. *)
  let rs =
    Serve.serve_batch srv
      [ mk 0 (10.0 *. est); mk 1 (1.5 *. est); mk 2 (2.5 *. est);
        mk 3 (2.6 *. est) ]
  in
  Alcotest.(check (list int)) "responses in request order" [ 0; 1; 2; 3 ]
    (List.map (fun r -> r.Serve.rs_id) rs);
  List.iteri
    (fun idx r ->
      if idx < 3 then
        match r.Serve.rs_status with
        | Serve.Completed o when o.Supervisor.result <> None -> ()
        | _ -> Alcotest.failf "request %d should have served" idx)
    rs;
  (match (List.nth rs 3).Serve.rs_status with
   | Serve.Rejected d ->
     Alcotest.(check string) "structured overload diagnostic" "overload"
       (Diag.code_to_string d.Diag.dg_code)
   | Serve.Completed _ -> Alcotest.fail "unmeetable deadline not shed");
  Alcotest.(check int) "one shed" 1 (Serve.stats srv).Serve.st_shed

(* ------------------------------------------------------------------ *)
(* Virtual-time overload soak: watermarks, accounting, determinism    *)

let test_soak_overload_virtual () =
  let fn = sized_fn () in
  let run () =
    let overload =
      { Serve.default_overload with
        Serve.ov_queue_high = 8;
        ov_queue_low = 2 }
    in
    let srv = Serve.create ~overload ~policy:Supervisor.default_policy () in
    let est = Serve.modeled_service srv ~sizes:[ ("n", 8) ] fn in
    let rate = 4.0 /. Float.max est 1e-9 in  (* 4x modeled saturation *)
    let args = sized_args 8 in
    let pristine = List.map (fun (n, t) -> (n, Tensor.copy t)) args in
    let make_request j =
      List.iter
        (fun (n, s) -> Tensor.copy_into ~src:s ~dst:(List.assoc n args))
        pristine;
      Serve.request ~sizes:[ ("n", 8) ] ~id:j fn args
    in
    let responses = ref 0 and sheds = ref 0 in
    let on_response _ r =
      incr responses;
      match r.Serve.rs_status with
      | Serve.Rejected d when d.Diag.dg_code = Diag.Overload -> incr sheds
      | Serve.Rejected d ->
        Alcotest.failf "unexpected rejection: %s" (Diag.to_string d)
      | Serve.Completed _ -> ()
    in
    let cfg =
      Serve.soak_cfg ~virtual_time:true
        ~phases:[ (0.25, 1.0); (0.5, 4.0); (0.25, 1.0) ]
        ~seed:7 ~requests:120 ~rate ~batch:4 ()
    in
    let r = Serve.soak ~on_response srv ~cfg ~make_request in
    (r, !responses, !sheds)
  in
  let r1, resp1, sheds1 = run () in
  Alcotest.(check int) "every request answered" 120 resp1;
  let shed_total = r1.Serve.sk_shed_admission + r1.Serve.sk_shed_deadline in
  Alcotest.(check bool) "overload shed some requests" true (shed_total > 0);
  Alcotest.(check int) "every shed carried an overload diagnostic"
    shed_total sheds1;
  Alcotest.(check int) "virtual time sheds instead of serving late" 0
    r1.Serve.sk_deadline_miss;
  Alcotest.(check int) "accounting: served + failed + refused = offered"
    120
    (r1.Serve.sk_served_clean + r1.Serve.sk_retried + r1.Serve.sk_degraded
   + r1.Serve.sk_failed + r1.Serve.sk_rejected + shed_total);
  let r2, _, _ = run () in
  Alcotest.(check bool) "virtual-time soak is fully deterministic" true
    (r1 = r2)

(* ------------------------------------------------------------------ *)
(* Percentile math                                                    *)

let test_percentile_exact () =
  (* the soak report's percentile on a known sequence: nearest-rank over
     the sorted array, index floor(q * (n-1)) *)
  let lat = Array.init 100 (fun k -> float_of_int (k + 1)) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0
    (Serve.percentile lat 0.50);
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0
    (Serve.percentile lat 0.99);
  Alcotest.(check (float 0.0)) "p0 is the minimum" 1.0
    (Serve.percentile lat 0.0);
  Alcotest.(check (float 0.0)) "p100 is the maximum" 100.0
    (Serve.percentile lat 1.0);
  Alcotest.(check (float 0.0)) "empty sample is 0" 0.0
    (Serve.percentile [||] 0.99);
  let five = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  Alcotest.(check (float 0.0)) "p50 of 5 samples" 30.0
    (Serve.percentile five 0.50);
  Alcotest.(check (float 0.0)) "p99 of 5 samples" 40.0
    (Serve.percentile five 0.99)

(* ------------------------------------------------------------------ *)
(* Hash-memo under concurrent lookups (regression: the canonical-hash
   memo in [Serve] is consulted by every worker domain that executes a
   batch group; before it was mutex-guarded, concurrent first-touch
   lookups could corrupt the table) *)

let test_hash_memo_concurrent () =
  (* y[a] = c*x[a]: distinct multipliers give distinct canonical hashes,
     so the memo holds several entries that the tasks race on. *)
  let fn_mult c =
    Stmt.func "memo"
      [ Stmt.param "x" Types.F32 [ v "n" ];
        Stmt.param ~atype:Types.Output "y" Types.F32 [ v "n" ] ]
      (Stmt.for_ "a" (i 0) (v "n")
         (Stmt.store "y" [ v "a" ]
            (Expr.mul (Expr.load "x" [ v "a" ]) (Expr.float c))))
  in
  let fns = Array.init 6 (fun k -> fn_mult (float_of_int (k + 2))) in
  let expected =
    (* keys computed on a throwaway server, sequentially *)
    let probe = Serve.create ~policy:Supervisor.default_policy () in
    Array.map (fun fn -> Serve.key_of probe ~sizes:[ ("n", 8) ] fn) fns
  in
  let srv = Serve.create ~policy:Supervisor.default_policy () in
  let mismatch = Atomic.make false in
  with_domains 4 (fun () ->
      let tasks =
        Array.init 32 (fun t () ->
            for r = 0 to 7 do
              let k = (t + r) mod Array.length fns in
              let key = Serve.key_of srv ~sizes:[ ("n", 8) ] fns.(k) in
              if key <> expected.(k) then Atomic.set mismatch true
            done)
      in
      let exns = Exec_par.run_tasks tasks in
      Array.iteri
        (fun t -> function
          | Some e ->
            Alcotest.failf "key_of task %d raised: %s" t
              (Printexc.to_string e)
          | None -> ())
        exns);
  Alcotest.(check bool) "every concurrent lookup saw the memoized key"
    false (Atomic.get mismatch)

(* ------------------------------------------------------------------ *)
(* Breaker: concurrent requests on a half-open key claim one probe     *)

let test_breaker_half_open_single_probe () =
  let b = Breaker.create ~k:2 ~cooldown:2 in
  let key = "artifact" in
  (* trip: two consecutive primary failures *)
  for _ = 1 to 2 do
    (match Breaker.route b key with
     | `Primary -> ()
     | _ -> Alcotest.fail "closed breaker must grant the primary");
    Breaker.record b key ~primary_ok:false
  done;
  Alcotest.(check bool) "tripped" true (Breaker.state b key = Breaker.Open);
  (* drain the cooldown: two fallback-served requests *)
  for _ = 1 to 2 do
    match Breaker.route b key with
    | `Fallback -> ()
    | _ -> Alcotest.fail "open breaker must route fallback during cooldown"
  done;
  (* cooldown expired: of N concurrent routes on the key, exactly one
     claims the probe; the rest observe the in-flight probe and fall
     back *)
  let routes = Array.make 16 `Fallback in
  with_domains 4 (fun () ->
      let tasks =
        Array.init (Array.length routes) (fun t () ->
            routes.(t) <- Breaker.route b key)
      in
      Array.iter
        (function
          | Some e ->
            Alcotest.failf "route task raised: %s" (Printexc.to_string e)
          | None -> ())
        (Exec_par.run_tasks tasks));
  let probes =
    Array.fold_left
      (fun acc r -> match r with `Probe -> acc + 1 | _ -> acc)
      0 routes
  in
  Alcotest.(check int) "exactly one probe" 1 probes;
  Alcotest.(check int) "everyone else fell back"
    (Array.length routes - 1)
    (Array.fold_left
       (fun acc r -> match r with `Fallback -> acc + 1 | _ -> acc)
       0 routes);
  Alcotest.(check bool) "probe in flight" true
    (Breaker.state b key = Breaker.Half_open);
  (* the probe's success closes the breaker *)
  Breaker.record b key ~primary_ok:true;
  Alcotest.(check bool) "recovered" true
    (Breaker.state b key = Breaker.Closed);
  Alcotest.(check int) "one recovery" 1 (Breaker.recoveries b)

(* ------------------------------------------------------------------ *)
(* EDF queue: heap-order property                                      *)

(* Pops come out in nondecreasing deadline order, FIFO among ties, and
   nothing is lost or invented. *)
let check_edfq_order deadlines =
  let q = Edfq.create () in
  List.iteri
    (fun idx d -> Edfq.push q ~deadline:(float_of_int d) idx)
    deadlines;
  let popped = ref [] in
  let rec drain () =
    match Edfq.pop q with
    | Some (d, v) ->
      popped := (d, v) :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  let popped = List.rev !popped in
  List.length popped = List.length deadlines
  && Edfq.is_empty q
  && (let ok = ref true in
      List.fold_left
        (fun prev (d, v) ->
          (match prev with
           | Some (pd, pv) ->
             if d < pd then ok := false
             else if d = pd && v < pv then ok := false (* FIFO among ties *)
           | None -> ());
          Some (d, v))
        None popped
      |> ignore;
      !ok)
  && List.sort compare (List.map fst popped)
     = List.sort compare (List.map float_of_int deadlines)

let prop_edfq_order =
  QCheck2.Test.make ~count:(n 200)
    ~name:
      "EDF queue: pops nondecreasing in deadline, FIFO among ties, \
       multiset preserved"
    QCheck2.Gen.(list_size (int_range 0 64) (int_bound 15))
    check_edfq_order

(* ------------------------------------------------------------------ *)
(* Wall-clock EWMA warmup gating                                       *)

let test_ewma_warmup_gating () =
  let srv = Serve.create ~policy:Supervisor.default_policy () in
  let warmup = Serve.default_overload.Serve.ov_ewma_warmup in
  Alcotest.(check bool) "default warmup is positive" true (warmup > 0);
  let est = 7.0 in
  (* cold key: the cost-model estimate stands in *)
  Alcotest.(check (float 0.0)) "no observations -> model estimate" est
    (Serve.predicted_service srv "key" ~est);
  (* observations below the warmup threshold still defer to the model,
     even though an EWMA exists already *)
  for _ = 1 to warmup - 1 do
    Serve.note_service srv "key" 1.0
  done;
  Alcotest.(check (float 0.0)) "below warmup -> still model estimate" est
    (Serve.predicted_service srv "key" ~est);
  (* the warmup-th observation switches the key to its EWMA *)
  Serve.note_service srv "key" 1.0;
  Alcotest.(check (float 1e-9)) "warmed up -> observed EWMA" 1.0
    (Serve.predicted_service srv "key" ~est);
  (* gating is per-key: a different key on the same server stays cold *)
  Alcotest.(check (float 0.0)) "other keys unaffected" est
    (Serve.predicted_service srv "other" ~est)

(* ------------------------------------------------------------------ *)
(* Concurrent batch dispatch parity                                    *)

(* The same batch served under concurrent dispatch (pool of 4), under
   sequential dispatch (the isolation verifier's baseline), and on a
   1-domain pool yields identical statuses, hit flags, response order,
   and bitwise-identical outputs. *)
let test_batch_parity_workers () =
  let fn = sized_fn () in
  let serve_once ~sequential_dispatch ~domains =
    with_domains domains (fun () ->
        let srv =
          Serve.create ~sequential_dispatch
            ~policy:Supervisor.default_policy ()
        in
        let per_req = Array.init 8 (fun j -> sized_args (8 + (8 * (j mod 2))))
        in
        let rs =
          Serve.serve_batch srv
            (List.init 8 (fun j ->
                 Serve.request
                   ~sizes:[ ("n", 8 + (8 * (j mod 2))) ]
                   ~id:j fn per_req.(j)))
        in
        (srv, rs, per_req))
  in
  let _, rs_con, args_con = serve_once ~sequential_dispatch:false ~domains:4 in
  let _, rs_seq, args_seq = serve_once ~sequential_dispatch:true ~domains:4 in
  let _, rs_one, args_one = serve_once ~sequential_dispatch:false ~domains:1 in
  let fingerprint rs =
    List.map
      (fun r ->
        ( r.Serve.rs_id, r.Serve.rs_hit,
          match r.Serve.rs_status with
          | Serve.Completed o -> (
            match o.Supervisor.result with
            | Some b -> Supervisor.backend_name b
            | None -> "fail-closed")
          | Serve.Rejected d -> Diag.code_to_string d.Diag.dg_code ))
      rs
  in
  Alcotest.(check (list (triple int bool string)))
    "concurrent dispatch matches the sequential baseline"
    (fingerprint rs_seq) (fingerprint rs_con);
  Alcotest.(check (list (triple int bool string)))
    "1-domain pool matches too" (fingerprint rs_seq) (fingerprint rs_one);
  Alcotest.(check (list int)) "responses in request order"
    (List.init 8 Fun.id)
    (List.map (fun r -> r.Serve.rs_id) rs_con);
  Array.iteri
    (fun j args ->
      check_doubled args;
      let y = List.assoc "y" args in
      Alcotest.(check bool) "outputs bitwise-identical across dispatch modes"
        true
        (bits_equal y (List.assoc "y" args_seq.(j))
        && bits_equal y (List.assoc "y" args_one.(j))))
    args_con

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_shared_budget; prop_cached_pool_sizes; prop_lru_occupancy;
      prop_edfq_order ]
  @ [ Alcotest.test_case "LRU bounds and recency" `Quick test_lru;
      Alcotest.test_case "shape specialization and per-size keys" `Quick
        test_specialization;
      Alcotest.test_case "eviction forces recompiles" `Quick
        test_lru_eviction_recompiles;
      Alcotest.test_case "demotion invalidates the artifact" `Quick
        test_invalidate_on_demotion;
      Alcotest.test_case "batch grouping keeps request order" `Quick
        test_batch_grouping;
      Alcotest.test_case "admission control rejects oversized requests"
        `Quick test_admission_control;
      Alcotest.test_case "guard checks are per-request deltas" `Quick
        test_guard_delta_per_request;
      Alcotest.test_case "soak is deterministic in its seed" `Quick
        test_soak_deterministic_arrivals;
      Alcotest.test_case "soak matches responses to offset request ids"
        `Quick test_soak_offset_ids;
      Alcotest.test_case "LRU edge cases: capacity 1, touch/invalidate"
        `Quick test_lru_edge_cases;
      Alcotest.test_case "breaker trips, fallback-serves, and recovers"
        `Quick test_breaker_trip_and_recovery;
      Alcotest.test_case "snapshot roundtrip and corruption detection"
        `Quick test_snapshot_roundtrip_and_corruption;
      Alcotest.test_case "snapshot warm start re-prepares the cache"
        `Quick test_snapshot_warm_start;
      Alcotest.test_case "EDF ordering sheds the unmeetable deadline"
        `Quick test_edf_and_shedding;
      Alcotest.test_case "virtual-time overload soak sheds structurally"
        `Quick test_soak_overload_virtual;
      Alcotest.test_case "soak percentiles are exact on known samples"
        `Quick test_percentile_exact;
      Alcotest.test_case "canonical-hash memo survives concurrent lookups"
        `Quick test_hash_memo_concurrent;
      Alcotest.test_case "half-open breaker grants exactly one probe"
        `Quick test_breaker_half_open_single_probe;
      Alcotest.test_case "EWMA warmup gates wall-clock shedding" `Quick
        test_ewma_warmup_gating;
      Alcotest.test_case "batch dispatch parity across pool sizes" `Quick
        test_batch_parity_workers ]
