(* Unit tests for the execution profiler (lib/profile): counter
   arithmetic, exact op counts on a hand-written matmul, kernel
   segmentation, trip counts, report/table formatting, replay pricing,
   the chrome-trace export, profiles of the lowered (served) tree, and a
   golden rendering of the Fig. 16 table layout. *)

open Ft_ir
open Ft_runtime
module Profile = Ft_profile.Profile
module Machine = Ft_machine.Machine
module Interp = Ft_backend.Interp
module Cexec = Ft_backend.Compile_exec
module Costmodel = Ft_backend.Costmodel

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: expected substring %S in:\n%s" what needle hay

(* ---------------------------------------------------------------- *)

let test_counter_arith () =
  let a = Profile.zero_counters () in
  checkb "fresh is zero" true (Profile.is_zero a);
  a.Profile.fadd <- 3;
  a.Profile.fmul <- 2;
  a.Profile.iops <- 7;
  a.Profile.loads <- 5;
  checki "flops = float classes only" 5 (Profile.flops a);
  let b = Profile.copy_counters a in
  checkb "copy equal" true (Profile.counters_equal a b);
  Profile.add_counters ~into:b a;
  checki "add doubles" 6 b.Profile.fadd;
  checki "original untouched" 3 a.Profile.fadd;
  let d = Profile.diff_counters b a in
  checkb "b - a = a" true (Profile.counters_equal d a);
  checkb "nonzero detected" false (Profile.is_zero a)

(* hand-written 4x6 = 4x5 @ 5x6 matmul: exactly 2*m*n*k flops *)
let matmul_func m n k =
  let i = Expr.var "i" and j = Expr.var "j" and kk = Expr.var "k" in
  let body =
    Stmt.for_ "i" (Expr.int 0) (Expr.int m)
      (Stmt.for_ "j" (Expr.int 0) (Expr.int n)
         (Stmt.seq
            [ Stmt.store "c" [ i; j ] (Expr.float 0.);
              Stmt.for_ "k" (Expr.int 0) (Expr.int k)
                (Stmt.reduce_to "c" [ i; j ] Types.R_add
                   (Expr.mul
                      (Expr.load "a" [ i; kk ])
                      (Expr.load "b" [ kk; j ]))) ]))
  in
  Stmt.func "matmul"
    [ Stmt.param "a" Types.F32 [ Expr.int m; Expr.int k ];
      Stmt.param "b" Types.F32 [ Expr.int k; Expr.int n ];
      Stmt.param ~atype:Types.Output "c" Types.F32 [ Expr.int m; Expr.int n ] ]
    body

let matmul_args m n k =
  [ ("a", Tensor.rand ~seed:1 Types.F32 [| m; k |]);
    ("b", Tensor.rand ~seed:2 Types.F32 [| k; n |]);
    ("c", Tensor.zeros Types.F32 [| m; n |]) ]

let test_matmul_exact () =
  let m, n, k = (4, 6, 5) in
  let fn = matmul_func m n k in
  let p = Profile.create () in
  Interp.run_func ~profile:p fn (matmul_args m n k);
  let t = Profile.totals p in
  let inner = m * n * k in
  checki "flops = 2mnk" (2 * inner) (Profile.flops t);
  checki "fmul = mnk" inner t.Profile.fmul;
  checki "fadd = mnk (reduce combine)" inner t.Profile.fadd;
  checki "loads = 3mnk (a, b, accumulator)" (3 * inner) t.Profile.loads;
  checki "stores = mn init + mnk reduce" ((m * n) + inner) t.Profile.stores;
  checki "no integer ops" 0 t.Profile.iops;
  checki "one kernel" 1 (List.length (Profile.kernels p));
  (* every byte of every param is DRAM traffic; 4 bytes per access *)
  checki "dram bytes = 4*(loads+stores)"
    (4 * ((3 * inner) + (m * n) + inner))
    t.Profile.dram_bytes;
  (* the analytic model agrees exactly on this static program *)
  let mm = Costmodel.estimate ~device:Types.Cpu fn in
  checki "cost model flops exact" (2 * inner)
    (int_of_float mm.Machine.flops);
  checki "cost model kernels exact" 1 mm.Machine.kernels

let test_kernel_segmentation () =
  let i = Expr.var "i" in
  let loop name body = Stmt.for_ name (Expr.int 0) (Expr.int 8) body in
  let body =
    Stmt.seq
      [ loop "i" (Stmt.store "y" [ Expr.var "i" ] (Expr.float 1.));
        Stmt.var_def "t" Types.F32 Types.Cpu_heap [ Expr.int 4 ]
          (Stmt.seq
             [ loop "j"
                 (Stmt.store "t"
                    [ Expr.mod_ (Expr.var "j") (Expr.int 4) ]
                    (Expr.float 2.));
               loop "k"
                 (Stmt.reduce_to "y"
                    [ Expr.var "k" ]
                    Types.R_add
                    (Expr.load "t" [ Expr.mod_ (Expr.var "k") (Expr.int 4) ])) ]);
        Stmt.store "y" [ Expr.int 0 ] (Expr.load "x" [ i ]) ]
  in
  (* the trailing store reads x[i] with i unbound: bind it via sizes *)
  let fn =
    Stmt.func "seg"
      [ Stmt.param "x" Types.F32 [ Expr.int 8 ];
        Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.int 8 ] ]
      body
  in
  let args () =
    [ ("x", Tensor.rand ~seed:3 Types.F32 [| 8 |]);
      ("y", Tensor.zeros Types.F32 [| 8 |]) ]
  in
  let p = Profile.create () in
  Interp.run_func ~sizes:[ ("i", 0) ] ~profile:p fn (args ());
  let ks = Profile.kernels p in
  checki "4 kernels: loop, Var_def body x2, store" 4 (List.length ks);
  (* launch order is source order; indexes are sequential *)
  List.iteri
    (fun idx k -> checki "launch index" idx k.Profile.k_index)
    ks;
  (* peak live = both params (32 + 32) + the heap local (16) *)
  checki "peak live bytes" 80 (Profile.peak_live_bytes p)

let test_trip_counts () =
  let body =
    Stmt.for_ "i" (Expr.int 2) (Expr.int 7)
      (Stmt.for_ "j" (Expr.int 0) (Expr.int 3)
         (Stmt.store "y" [ Expr.mod_ (Expr.add (Expr.var "i") (Expr.var "j"))
                             (Expr.int 8) ]
            (Expr.float 0.)))
  in
  let fn =
    Stmt.func "trips"
      [ Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.int 8 ] ]
      body
  in
  let p = Profile.create () in
  Interp.run_func ~profile:p fn [ ("y", Tensor.zeros Types.F32 [| 8 |]) ];
  let outer = Profile.stmt_counters p fn.Stmt.fn_body.Stmt.sid in
  checki "outer entries" 1 outer.Profile.entries;
  checki "outer trips" 5 outer.Profile.trips;
  (match fn.Stmt.fn_body.Stmt.node with
   | Stmt.For f ->
     let inner = Profile.stmt_counters p f.Stmt.f_body.Stmt.sid in
     checki "inner entries" 5 inner.Profile.entries;
     checki "inner trips" 15 inner.Profile.trips
   | _ -> Alcotest.fail "expected a for loop")

let test_int_ops_and_i32_locals () =
  (* an i32 local written with div/mod arithmetic, read back into floats *)
  let i = Expr.var "i" in
  let body =
    Stmt.var_def "t" Types.I32 Types.Cpu_stack [ Expr.int 6 ]
      (Stmt.seq
         [ Stmt.for_ "i" (Expr.int 0) (Expr.int 6)
             (Stmt.store "t" [ i ]
                (Expr.add
                   (Expr.floor_div i (Expr.int 2))
                   (Expr.mod_ i (Expr.int 3))));
           Stmt.for_ "i" (Expr.int 0) (Expr.int 6)
             (Stmt.store "y" [ i ]
                (Expr.mul (Expr.load "t" [ i ]) (Expr.float 2.0))) ])
  in
  let fn =
    Stmt.func "intops"
      [ Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.int 6 ] ]
      body
  in
  let run () =
    let p = Profile.create () in
    let y = Tensor.zeros Types.F32 [| 6 |] in
    Interp.run_func ~profile:p fn [ ("y", y) ];
    (p, y)
  in
  let p, y = run () in
  let t = Profile.totals p in
  (* per first-loop iteration: one div + one mod (iops), one add *)
  checki "iops = 2 per store" 12 t.Profile.iops;
  checki "adds" 6 t.Profile.fadd;
  checki "muls" 6 t.Profile.fmul;
  check (Alcotest.float 1e-6) "t[5] = 5/2 + 5 mod 3 = 4, times 2" 8.0
    (Tensor.get_f y [| 5 |]);
  let yc = Tensor.zeros Types.F32 [| 6 |] in
  Cexec.run_func fn [ ("y", yc) ];
  check (Alcotest.float 1e-6) "values agree" 0.0 (Tensor.max_abs_diff y yc)

let test_report_and_vs_table () =
  let m, n, k = (4, 6, 5) in
  let fn = matmul_func m n k in
  let p = Profile.create () in
  Interp.run_func ~profile:p fn (matmul_args m n k);
  let rep = Profile.report fn p in
  check_contains "report header" rep "profile report: matmul";
  check_contains "report totals" rep "kernels=1";
  check_contains "report tree loop" rep "for i";
  check_contains "report trip counts" rep "trips=4(x1)";
  check_contains "report hottest" rep "hottest statements";
  check_contains "report loop path" rep "i/j/k";
  let predicted, per_kernel =
    Costmodel.estimate_kernels ~device:Types.Cpu fn
  in
  let tbl =
    Profile.vs_table ~spec:Machine.cpu ~predicted ~per_kernel p
  in
  check_contains "table header" tbl "pred/obs";
  check_contains "table flops row" tbl "FLOPs";
  check_contains "table per-kernel section" tbl "per kernel";
  (* flops are exact on this program: the ratio column shows 1.00 *)
  check_contains "exact flops ratio" tbl "1.00"

let test_replay_cost () =
  let fn = matmul_func 4 6 5 in
  let p = Profile.create () in
  Interp.run_func ~profile:p fn (matmul_args 4 6 5);
  let m = Profile.replay_cost Machine.cpu p in
  checki "replayed kernels" 1 m.Machine.kernels;
  checki "replayed flops" 240 (int_of_float m.Machine.flops);
  checkb "positive finite time" true
    (Float.is_finite m.Machine.time && m.Machine.time > 0.0);
  checkb "peak mem = observed live" true
    (int_of_float m.Machine.peak_mem = Profile.peak_live_bytes p)

let test_chrome_trace () =
  let fn = matmul_func 2 2 2 in
  let p = Profile.create () in
  Interp.run_func ~profile:p fn (matmul_args 2 2 2);
  let j = Profile.to_chrome_json p in
  check_contains "trace envelope" j "traceEvents";
  check_contains "complete events" j "\"ph\":\"X\"";
  check_contains "kernel name" j "for i"

let test_atomic_counts () =
  (* atomic scatter-reduce: the observed atomics counter, the analytic
     model's prediction, and replay pricing must all see one RMW per
     iteration — and the RMWs must cost time *)
  let nn = 32 in
  let fn =
    Stmt.func "scatter"
      [ Stmt.param "idx" Types.I32 [ Expr.int nn ];
        Stmt.param "b" Types.F32 [ Expr.int nn ];
        Stmt.param ~atype:Types.Inout "a" Types.F32 [ Expr.int nn ] ]
      (Stmt.for_ "i" (Expr.int 0) (Expr.int nn)
         (Stmt.reduce_to ~atomic:true "a"
            [ Expr.load "idx" [ Expr.var "i" ] ]
            Types.R_add
            (Expr.load "b" [ Expr.var "i" ])))
  in
  let args () =
    [ ("idx", Tensor.randint ~seed:4 ~lo:0 ~hi:nn Types.I32 [| nn |]);
      ("b", Tensor.rand ~seed:5 Types.F32 [| nn |]);
      ("a", Tensor.zeros Types.F32 [| nn |]) ]
  in
  let p = Profile.create () in
  Interp.run_func ~profile:p fn (args ());
  checki "one atomic RMW per iteration" nn (Profile.totals p).Profile.atomics;
  let predicted, per_kernel = Costmodel.estimate_kernels ~device:Types.Cpu fn in
  checki "cost model predicts the count" nn
    (int_of_float predicted.Machine.atomics);
  let observed = Profile.replay_cost Machine.cpu p in
  checki "replay prices the count" nn (int_of_float observed.Machine.atomics);
  checkb "atomic RMWs cost time" true
    (observed.Machine.time
     >= float_of_int nn *. Machine.cpu.Machine.atomic_rmw);
  let tbl = Profile.vs_table ~spec:Machine.cpu ~predicted ~per_kernel p in
  check_contains "vs-table atomics row" tbl "atomics"

let test_json_escape () =
  check Alcotest.string "quote, backslash, newline, tab, control"
    "a\\\"b\\\\c\\nd\\te\\u0001f"
    (Profile.json_escape "a\"b\\c\nd\te\001f");
  check Alcotest.string "plain strings untouched" "for i"
    (Profile.json_escape "for i")

let test_chrome_trace_hostile_name () =
  (* iterator names flow into the trace's "name" field verbatim; a name
     with quotes/newlines must come out escaped, not break the JSON *)
  let evil = "i\"</script>\nj\\k" in
  let fn =
    Stmt.func "hostile"
      [ Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.int 4 ] ]
      (Stmt.for_ evil (Expr.int 0) (Expr.int 4)
         (Stmt.store "y" [ Expr.var evil ] (Expr.float 1.0)))
  in
  let p = Profile.create () in
  Interp.run_func ~profile:p fn [ ("y", Tensor.zeros Types.F32 [| 4 |]) ];
  let j = Profile.to_chrome_json p in
  checkb "no raw newline survives" false (String.contains j '\n');
  check_contains "escaped quote" j "i\\\"</script>";
  check_contains "escaped newline and backslash" j "\\nj\\\\k"

(* The profile observes the tree the compiled executor serves: the
   lowered GAT forward, whose gemm k-loop is a [dot] microkernel. *)
let gat_small = Ft_workloads.Experiments.small_scale

let test_profile_workload_lowered () =
  let module E = Ft_workloads.Experiments in
  let rep =
    Ft_workloads.Tables.profile_workload ~device:Types.Cpu gat_small E.Gatw
  in
  check_contains "report shows a microkernel nest" rep "microkernel";
  check_contains "predicted-vs-observed table" rep "pred/obs"

let test_lowered_profile_deterministic () =
  let module E = Ft_workloads.Experiments in
  let scheduled =
    Ft_auto.Auto.run ~device:Types.Cpu (E.ft_forward_func gat_small E.Gatw)
  in
  let fn = (Cexec.compile scheduled).Cexec.cd_fn in
  let profile () =
    let p = Profile.create () in
    Interp.run_func ~profile:p fn
      (Ft_workloads.Tables.workload_args gat_small E.Gatw ());
    Profile.report fn p
  in
  let first = profile () in
  check_contains "profiled tree is the lowered one" first "microkernel";
  check Alcotest.string "same lowered tree, same report" first (profile ())

(* ---------------------------------------------------------------- *)
(* Golden rendering of the Fig. 16 table layout (satellite: catches
   accidental format drift in the bench tables under dune runtest). *)

let golden_table =
  "\n== golden ==\n\
   workload     dev      FreeTensor   PyTorch-like FT speedup\n\
   SubdivNet    cpu        1.000 ms       2.000 ms      2.00x\n\
   SubdivNet    gpu        1.000 ms       2.000 ms      2.00x\n\
   Longformer   cpu        1.000 ms            OOM          -\n\
   Longformer   gpu        1.000 ms            OOM          -\n\
   SoftRas      cpu        1.000 ms       2.000 ms      2.00x\n\
   SoftRas      gpu        1.000 ms       2.000 ms      2.00x\n\
   GAT          cpu               -              -          -\n\
   GAT          gpu               -              -          -\n\
   FreeTensor speedup over best baseline: 2.00x geomean, 2.00x max\n"

let test_golden_table () =
  let module E = Ft_workloads.Experiments in
  let time t =
    let m = Machine.fresh_metrics () in
    m.Machine.time <- t;
    E.Time m
  in
  let cell_of _device w f =
    match (w, f) with
    | E.Gatw, _ -> E.Not_reported
    | E.Longf, E.Torchlike -> E.Oom "stub"
    | _, E.Freetensor -> time 1.0e-3
    | _, E.Torchlike -> time 2.0e-3
    | _, _ -> E.Not_reported
  in
  let rendered =
    Ft_workloads.Tables.render_table ~title:"golden"
      ~frameworks:[ E.Freetensor; E.Torchlike ] ~cell_of ()
  in
  check Alcotest.string "fig16-style table layout" golden_table rendered

let suite =
  [ Alcotest.test_case "counter arithmetic" `Quick test_counter_arith;
    Alcotest.test_case "matmul exact counts" `Quick test_matmul_exact;
    Alcotest.test_case "kernel segmentation" `Quick test_kernel_segmentation;
    Alcotest.test_case "trip counts" `Quick test_trip_counts;
    Alcotest.test_case "i32 locals and integer ops" `Quick
      test_int_ops_and_i32_locals;
    Alcotest.test_case "report and vs-table" `Quick test_report_and_vs_table;
    Alcotest.test_case "replay cost" `Quick test_replay_cost;
    Alcotest.test_case "chrome trace json" `Quick test_chrome_trace;
    Alcotest.test_case "atomic RMW counts and pricing" `Quick
      test_atomic_counts;
    Alcotest.test_case "json escaping" `Quick test_json_escape;
    Alcotest.test_case "chrome trace hostile names" `Quick
      test_chrome_trace_hostile_name;
    Alcotest.test_case "profile_workload observes the lowered tree" `Quick
      test_profile_workload_lowered;
    Alcotest.test_case "lowered-tree profile is deterministic" `Quick
      test_lowered_profile_deterministic;
    Alcotest.test_case "golden fig16 table" `Quick test_golden_table ]
