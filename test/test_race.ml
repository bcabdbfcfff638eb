(* Two-sided race detection: the polyhedral verifier (Ft_analyze.Race),
   the interpreter's dynamic sanitizer, and the compiled executor's
   verdict-driven fallback must tell one consistent story.

   The load-bearing property is one-directional soundness: whenever the
   static verifier proves a program free of races (every annotated loop
   Safe or Safe_with_atomics), the exact dynamic sanitizer must observe
   none on any executed trace.  The reverse is not required — the static
   side is conservative on non-affine subscripts. *)

open Ft_ir
open Ft_runtime
module Race = Ft_analyze.Race
module Interp = Ft_backend.Interp
module Cexec = Ft_backend.Compile_exec
module Exec_par = Ft_backend.Exec_par
module Auto = Ft_auto.Auto

let n = Gen_prog.iterations

let par_prop =
  { Stmt.default_property with Stmt.parallel = Some Types.Openmp }

let with_domains k f =
  let saved = Exec_par.num_domains () in
  Exec_par.set_num_domains k;
  Fun.protect ~finally:(fun () -> Exec_par.set_num_domains saved) f

let with_logger f =
  let msgs = ref [] in
  let saved = !Cexec.race_logger in
  Cexec.race_logger := (fun m -> msgs := m :: !msgs);
  Fun.protect
    ~finally:(fun () -> Cexec.race_logger := saved)
    (fun () -> f msgs)

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

(* {1 Differential property} *)

let prop_static_safe_implies_sanitizer_clean =
  QCheck2.Test.make ~count:(n 120)
    ~name:"static Safe verdicts imply a sanitizer-clean execution"
    Gen_prog.gen_par_func
    (fun fn ->
      let reports = Race.check_func fn in
      let statically_clean =
        List.for_all
          (fun r -> not (Race.is_racy r.Race.lr_verdict))
          reports
      in
      if not statically_clean then true
      else Interp.sanitize_func fn (Gen_prog.fresh_args ()) = [])

(* {1 The racy-store regression (the par_legal gap)} *)

(* Every iteration stores to the same cell a[0] and then reads it back:
   a textbook write-write/read-write race that the old syntactic
   [par_legal] scan in the executor never looked for (it only vetted
   reduce targets), so a hand-annotated loop like this used to run
   parallel with corrupted interleavings. *)
let racy_store_func nn =
  Stmt.func "racy_store"
    [ Stmt.param "b" Types.F32 [ Expr.int nn ];
      Stmt.param ~atype:Types.Output "a" Types.F32 [ Expr.int 1 ];
      Stmt.param ~atype:Types.Output "out" Types.F32 [ Expr.int nn ] ]
    (Stmt.for_ ~label:"L" ~property:par_prop "i" (Expr.int 0) (Expr.int nn)
       (Stmt.seq
          [ Stmt.store "a" [ Expr.int 0 ]
              (Expr.load "b" [ Expr.var "i" ]);
            Stmt.store "out" [ Expr.var "i" ]
              (Expr.load "a" [ Expr.int 0 ]) ]))

let racy_args nn =
  let b = Tensor.rand ~seed:13 Types.F32 [| nn |] in
  let a = Tensor.zeros Types.F32 [| 1 |] in
  let out = Tensor.zeros Types.F32 [| nn |] in
  ([ ("b", b); ("a", a); ("out", out) ], a, out)

let test_static_flags_racy_store () =
  let fn = racy_store_func 32 in
  match Race.check_func fn with
  | [ r ] -> (
    match r.Race.lr_verdict with
    | Race.Racy conflicts ->
      Alcotest.(check bool) "at least one conflict" true (conflicts <> []);
      Alcotest.(check bool) "report names the loop" true
        (r.Race.lr_iter = "i")
    | v ->
      Alcotest.failf "expected Racy, got %s" (Race.verdict_to_string v))
  | rs -> Alcotest.failf "expected 1 annotated loop, got %d" (List.length rs)

let test_sanitizer_flags_racy_store () =
  let fn = racy_store_func 32 in
  let args, _, _ = racy_args 32 in
  let races = Interp.sanitize_func fn args in
  Alcotest.(check bool) "sanitizer observes races" true (races <> []);
  Alcotest.(check bool) "on tensor a" true
    (List.exists (fun r -> r.Interp.race_tensor = "a") races);
  Alcotest.(check bool) "a store/store pair" true
    (List.exists (fun r -> r.Interp.race_kind = "store/store") races);
  (* run_func ~sanitize raises, after computing sequential semantics *)
  let args, _, out = racy_args 32 in
  (match Interp.run_func ~sanitize:true fn args with
   | () -> Alcotest.fail "expected Race_detected"
   | exception Interp.Race_detected _ -> ());
  let args_ref, _, out_ref = racy_args 32 in
  Interp.run_func fn args_ref;
  Alcotest.(check bool) "outputs are still sequential semantics" true
    (bits_equal out out_ref)

let test_fallback_is_sequential () =
  let nn = 64 in
  let fn = racy_store_func nn in
  let args_ref, a_ref, out_ref = racy_args nn in
  Interp.run_func fn args_ref;
  with_logger (fun msgs ->
      List.iter
        (fun k ->
          with_domains k (fun () ->
              let args, a, out = racy_args nn in
              Cexec.run_func ~parallel:true fn args;
              Alcotest.(check bool)
                (Printf.sprintf "a matches sequential (%d domains)" k)
                true (bits_equal a a_ref);
              Alcotest.(check bool)
                (Printf.sprintf "out matches sequential (%d domains)" k)
                true (bits_equal out out_ref)))
        [ 1; 2; 8 ];
      Alcotest.(check bool) "fallback reason was logged" true
        (List.exists
           (fun m ->
             let has needle =
               let ln = String.length needle and lm = String.length m in
               let rec go i =
                 i + ln <= lm && (String.sub m i ln = needle || go (i + 1))
               in
               go 0
             in
             has "race fallback" && has "Racy")
           !msgs))

(* {1 Verdict taxonomy} *)

let test_scatter_is_safe_with_atomics () =
  (* a[idx[i]] += b[i]: commuting reduction into possibly-shared cells *)
  let nn = 16 in
  let red =
    Stmt.reduce_to "a"
      [ Expr.load "idx" [ Expr.var "i" ] ]
      Types.R_add
      (Expr.load "b" [ Expr.var "i" ])
  in
  let fn =
    Stmt.func "scatter"
      [ Stmt.param "idx" Types.I32 [ Expr.int nn ];
        Stmt.param "b" Types.F32 [ Expr.int nn ];
        Stmt.param ~atype:Types.Inout "a" Types.F32 [ Expr.int nn ] ]
      (Stmt.for_ ~property:par_prop "i" (Expr.int 0) (Expr.int nn) red)
  in
  match Race.check_func fn with
  | [ { Race.lr_verdict = Race.Safe_with_atomics sids; _ } ] ->
    Alcotest.(check (list int)) "the reduce site" [ red.Stmt.sid ] sids
  | [ r ] ->
    Alcotest.failf "expected Safe_with_atomics, got %s"
      (Race.verdict_to_string r.Race.lr_verdict)
  | rs -> Alcotest.failf "expected 1 annotated loop, got %d" (List.length rs)

let test_private_stores_are_safe () =
  let nn = 16 in
  let fn =
    Stmt.func "private"
      [ Stmt.param "b" Types.F32 [ Expr.int nn ];
        Stmt.param ~atype:Types.Output "a" Types.F32 [ Expr.int nn ] ]
      (Stmt.for_ ~property:par_prop "i" (Expr.int 0) (Expr.int nn)
         (Stmt.store "a" [ Expr.var "i" ] (Expr.load "b" [ Expr.var "i" ])))
  in
  (match Race.check_func fn with
   | [ { Race.lr_verdict = Race.Safe; _ } ] -> ()
   | [ r ] ->
     Alcotest.failf "expected Safe, got %s"
       (Race.verdict_to_string r.Race.lr_verdict)
   | rs ->
     Alcotest.failf "expected 1 annotated loop, got %d" (List.length rs));
  let b = Tensor.rand ~seed:3 Types.F32 [| nn |] in
  let a = Tensor.zeros Types.F32 [| nn |] in
  Alcotest.(check bool) "sanitizer agrees" true
    (Interp.sanitize_func fn [ ("b", b); ("a", a) ] = [])

let test_mixed_op_reduce_is_race () =
  (* R_add and R_max into the same cell from different iterations do not
     commute with each other: both detectors must flag the pair *)
  let nn = 8 in
  let fn =
    Stmt.func "mixed"
      [ Stmt.param "b" Types.F32 [ Expr.int nn ];
        Stmt.param ~atype:Types.Inout "s" Types.F32 [ Expr.int 1 ] ]
      (Stmt.for_ ~property:par_prop "i" (Expr.int 0) (Expr.int nn)
         (Stmt.if_
            (Expr.lt (Expr.var "i") (Expr.int 4))
            (Stmt.reduce_to "s" [ Expr.int 0 ] Types.R_add
               (Expr.load "b" [ Expr.var "i" ]))
            (Some
               (Stmt.reduce_to "s" [ Expr.int 0 ] Types.R_max
                  (Expr.load "b" [ Expr.var "i" ])))))
  in
  (match Race.check_func fn with
   | [ { Race.lr_verdict = Race.Racy _; _ } ] -> ()
   | [ r ] ->
     Alcotest.failf "expected Racy, got %s"
       (Race.verdict_to_string r.Race.lr_verdict)
   | rs ->
     Alcotest.failf "expected 1 annotated loop, got %d" (List.length rs));
  let b = Tensor.rand ~seed:5 Types.F32 [| nn |] in
  let s = Tensor.zeros Types.F32 [| 1 |] in
  let races = Interp.sanitize_func fn [ ("b", b); ("s", s) ] in
  Alcotest.(check bool) "sanitizer flags mixed-op reduce" true (races <> [])

let test_loop_local_tensors_exempt () =
  (* a tensor defined inside the loop body is iteration-private: stores
     to it from every iteration are not races *)
  let nn = 8 in
  let fn =
    Stmt.func "scratch"
      [ Stmt.param ~atype:Types.Output "a" Types.F32 [ Expr.int nn ] ]
      (Stmt.for_ ~property:par_prop "i" (Expr.int 0) (Expr.int nn)
         (Stmt.var_def "t" Types.F32 Types.Cpu_stack [ Expr.int 1 ]
            (Stmt.seq
               [ Stmt.store "t" [ Expr.int 0 ] (Expr.float 1.0);
                 Stmt.store "a" [ Expr.var "i" ]
                   (Expr.load "t" [ Expr.int 0 ]) ])))
  in
  (match Race.check_func fn with
   | [ { Race.lr_verdict = Race.Safe; _ } ] -> ()
   | [ r ] ->
     Alcotest.failf "expected Safe, got %s"
       (Race.verdict_to_string r.Race.lr_verdict)
   | rs ->
     Alcotest.failf "expected 1 annotated loop, got %d" (List.length rs));
  let a = Tensor.zeros Types.F32 [| nn |] in
  Alcotest.(check bool) "sanitizer agrees" true
    (Interp.sanitize_func fn [ ("a", a) ] = [])

(* {1 Workloads} *)

let test_workloads_check_clean () =
  let module Sub = Ft_workloads.Subdivnet in
  let module Lf = Ft_workloads.Longformer in
  let module Sr = Ft_workloads.Softras in
  let module Gat = Ft_workloads.Gat in
  let funcs =
    [ ("subdivnet", Sub.ft_func { Sub.n_faces = 48; in_feats = 7 });
      ("longformer", Lf.ft_func { Lf.seq_len = 24; feat_len = 5; w = 3 });
      ("softras", Sr.ft_func { Sr.img = 9; n_faces = 6; sigma = 0.02 });
      ("gat",
       let gc =
         { Gat.n_nodes = 24; in_feats = 4; out_feats = 3; avg_degree = 3 }
       in
       let _, _, n_edges = Gat.gen_graph gc in
       Gat.ft_func gc ~n_edges) ]
  in
  List.iter
    (fun (name, fn) ->
      let sched = Auto.run ~device:Types.Cpu fn in
      let reports = Race.check_func sched in
      Alcotest.(check bool)
        (name ^ " has parallel loops after auto-scheduling")
        true (reports <> []);
      if Race.has_racy reports then
        Alcotest.failf "%s: auto-schedule produced a racy annotation:\n%s"
          name (Race.func_report sched))
    funcs

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_static_safe_implies_sanitizer_clean ]
  @ [ Alcotest.test_case "static verdict on racy store" `Quick
        test_static_flags_racy_store;
      Alcotest.test_case "sanitizer on racy store" `Quick
        test_sanitizer_flags_racy_store;
      Alcotest.test_case "racy loop falls back to sequential" `Quick
        test_fallback_is_sequential;
      Alcotest.test_case "scatter reduce is Safe_with_atomics" `Quick
        test_scatter_is_safe_with_atomics;
      Alcotest.test_case "private stores are Safe" `Quick
        test_private_stores_are_safe;
      Alcotest.test_case "mixed-op reduce is a race" `Quick
        test_mixed_op_reduce_is_race;
      Alcotest.test_case "loop-local tensors are exempt" `Quick
        test_loop_local_tensors_exempt;
      Alcotest.test_case "auto-scheduled workloads check clean" `Quick
        test_workloads_check_clean ]
