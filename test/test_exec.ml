(* The plain (unguarded, unprofiled) closure executor: fused operands
   and per-artifact recycled state.

   - random programs covering every operand kind (constant, iterator,
     running-offset load, computed-offset load, computed node) under
     every float operator, store and reduce — including int loads in
     index position, casts of iterators, and min/max reduces over NaN
     and -0.0 — are bitwise equal to the interpreter;
   - an executed access to a name no scope binds still raises
     [Exec_error "... is not live here"];
   - exact allocation gate: minor words of one sequential run of each
     paper program (and a Selective forward/backward pair) at small
     sizes, against committed numbers;
   - after an injected transient fault, the retry and the next same-key
     request see zeroed recycled buffers and pristine restored
     arguments, and concurrent same-key requests never share an
     artifact's recycled state;
   - the parallel guarded executor's check count is exact. *)

open Ft_ir
open Ft_runtime
module Interp = Ft_backend.Interp
module Cexec = Ft_backend.Compile_exec
module Exec_par = Ft_backend.Exec_par
module Supervisor = Ft_backend.Supervisor
module Machine = Ft_machine.Machine
module Serve = Ft_serve.Serve
module Auto = Ft_auto.Auto
module Grad = Ft_ad.Grad

let n = Gen_prog.iterations

let with_domains k f =
  let saved = Exec_par.num_domains () in
  Exec_par.set_num_domains k;
  Fun.protect ~finally:(fun () -> Exec_par.set_num_domains saved) f

(* Bitwise, except that all NaNs are one class: with two NaN operands
   the hardware returns one of them, chosen by the operand order the
   native code generator happened to emit, which differs between any two
   compiled code paths (the interpreter's included).  Signed zeros and
   infinities are compared exactly. *)
let bits_equal a b =
  Tensor.shape a = Tensor.shape b
  && Array.for_all2
       (fun x y ->
         Int64.bits_of_float x = Int64.bits_of_float y
         || (Float.is_nan x && Float.is_nan y))
       (Tensor.to_float_array a) (Tensor.to_float_array b)

(* ------------------------------------------------------------------ *)
(* Operand kinds x operators                                          *)

(* Loops [i < 4], [j < 6] over the fixed signature of {!Gen_prog}:
   [x f32[12]], [m f32[4,6]], [idx i32[12]] in [0,12), outputs [y f32[12]]
   and [z f32[4,6]]. *)
let i = Expr.var "i"
let j = Expr.var "j"
(* raw constructors: the smart ones would fold some of the cases away *)
let raw_int k = Expr.Int_const k
let cast e = Expr.Cast (Types.F32, e)
let bin op a b = Expr.Binop (op, a, b)
let add = bin Expr.Add
let mul = bin Expr.Mul
let md a k = bin Expr.Mod a (raw_int k)
let load1 name e = Expr.load name [ e ]

let specials =
  [ 0.0; -0.0; 1.5; -2.0; Float.nan; Float.infinity; Float.neg_infinity ]

let gen_leaf : Expr.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [ (* constants *)
      map (fun f -> Expr.Float_const f) (oneofl specials);
      map (fun f -> Expr.Float_const f) (float_range (-3.0) 3.0);
      (* iterators (cast: a bare int-valued subtree in a float context is
         int arithmetic to the interpreter and float arithmetic to the
         compiled executor, which differ on the sign of zero) *)
      oneofl [ cast i; cast j ];
      (* loads at running offsets (affine in an enclosing iterator) *)
      oneofl
        [ load1 "x" i; load1 "x" j; load1 "x" (add (mul (raw_int 2) i) j);
          Expr.load "m" [ i; j ]; Expr.load "m" [ raw_int 3; raw_int 5 ] ];
      (* loads at computed offsets, int loads in index position *)
      oneofl
        [ load1 "x" (load1 "idx" j);
          Expr.load "m" [ md (load1 "idx" i) 4; j ];
          load1 "x" (md (mul i j) 12) ];
      (* computed leaves: int tensor and integer arithmetic in a float
         context *)
      oneofl
        [ cast (load1 "idx" j);
          cast (bin Expr.Floor_div (add i j) (raw_int 2));
          cast (md (mul i (raw_int 3)) 5);
          cast (add i j) ] ]

let binops =
  [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Min; Expr.Max; Expr.Pow ]

let unops =
  [ Expr.Neg; Expr.Abs; Expr.Sqrt; Expr.Exp; Expr.Ln; Expr.Sigmoid; Expr.Tanh;
    Expr.Floor_op; Expr.Ceil_op; Expr.Square ]

let gen_fexpr : Expr.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (int_range 0 3) @@ fix (fun self d ->
      if d = 0 then gen_leaf
      else
        let sub = self (d - 1) in
        frequency
          [ (1, gen_leaf);
            (4, map3 bin (oneofl binops) sub sub);
            (2, map2 (fun op a -> Expr.Unop (op, a)) (oneofl unops) sub);
            ( 1,
              map4
                (fun cmp a b (c, e) -> Expr.Select (bin cmp a b, c, e))
                (oneofl [ Expr.Lt; Expr.Ge; Expr.Eq ])
                sub sub (pair sub sub) );
            ( 1,
              map2
                (fun a b -> Expr.Select (bin Expr.Lt i j, a, b))
                sub sub ) ])

let reduce_ops = [ Types.R_add; Types.R_mul; Types.R_min; Types.R_max ]

(* one statement in the [i, j] nest: a store or reduce at a running or
   computed offset, or a reduce into a recycled scalar local *)
let gen_stmt : Stmt.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* e = gen_fexpr in
  let* op = oneofl reduce_ops in
  oneofl
    [ Stmt.store "z" [ i; j ] e;
      Stmt.store "y" [ load1 "idx" j ] e;
      Stmt.reduce_to "z" [ i; j ] op e;
      Stmt.reduce_to "y" [ load1 "idx" (add i j) ] op e;
      Stmt.var_def "acc" Types.F32 Types.Cpu_stack []
        (Stmt.seq
           [ Stmt.store "acc" [] (Expr.load "x" [ j ]);
             Stmt.reduce_to "acc" [] op e;
             Stmt.reduce_to "z" [ i; j ] op (Expr.load "acc" []) ]);
      (* an int local feeding an index *)
      Stmt.var_def "k" Types.I32 Types.Cpu_stack [ raw_int 6 ]
        (Stmt.seq
           [ Stmt.store "k" [ j ] (md (add (load1 "idx" j) i) 12);
             Stmt.store "y" [ load1 "k" j ] e ]) ]

let gen_kinds_func : Stmt.func QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* body = list_size (int_range 1 4) gen_stmt in
  return
    (Stmt.func "kinds" Gen_prog.params
       (Stmt.for_ "i" (raw_int 0) (raw_int 4)
          (Stmt.for_ "j" (raw_int 0) (raw_int 6) (Stmt.seq body))))

(* inputs with special values, so NaN and signed zeros meet every
   operator and every reduce *)
let special_args () =
  let args = Gen_prog.fresh_args () in
  let x = List.assoc "x" args and m = List.assoc "m" args in
  List.iteri (fun k v -> Tensor.set_flat_f x k v) specials;
  Tensor.set_flat_f m 0 Float.nan;
  Tensor.set_flat_f m 7 (-0.0);
  args

let prop_kinds_bitwise =
  QCheck2.Test.make ~count:(n 300)
    ~name:"operand kinds x operators: fused executor bitwise equal to interp"
    ~print:(fun fn -> Printer.func_to_string fn)
    gen_kinds_func
    (fun fn ->
      let a1 = special_args () and a2 = special_args () in
      (* The reference interprets the tree the executor compiled
         ([cd_fn], after the lowering pipeline): the simplifier's
         constant folding ([x *. 0.] to [0.], [x +. 0.] to [x]) is not
         IEEE-exact on NaN, infinities and -0.0, and that is the
         pipeline's contract, not the executor's. *)
      let cd = Cexec.compile fn in
      Interp.run_func cd.Cexec.cd_fn a1;
      (* twice: the second run reuses the recycled locals *)
      cd.Cexec.cd_run a2 [];
      let y1, z1 = Gen_prog.outputs a1 in
      let y2, z2 = Gen_prog.outputs a2 in
      let first = bits_equal y1 y2 && bits_equal z1 z2 in
      let a3 = special_args () in
      cd.Cexec.cd_run a3 [];
      let y3, z3 = Gen_prog.outputs a3 in
      first && bits_equal y1 y3 && bits_equal z1 z3)

(* ------------------------------------------------------------------ *)
(* Orphan accesses                                                    *)

let test_orphan_access () =
  let flag = Tensor.of_int_array Types.I32 [| 1 |] [| 1 |] in
  let guarded s =
    Stmt.func "orphan"
      [ Stmt.param "flag" Types.I32 [ raw_int 1 ];
        Stmt.param ~atype:Types.Output "y" Types.F32 [ raw_int 4 ] ]
      (Stmt.if_ (bin Expr.Gt (load1 "flag" (raw_int 0)) (raw_int 0)) s None)
  in
  let cases =
    let ghost = load1 "ghost" (raw_int 0) and one = Expr.float 1.0 in
    [ ("float load", Stmt.store "y" [ raw_int 0 ] ghost);
      ("index load", Stmt.store "y" [ ghost ] one);
      ("store target", Stmt.store "ghost" [ raw_int 0 ] one);
      ("reduce target", Stmt.reduce_to "ghost" [ raw_int 0 ] Types.R_add one) ]
  in
  List.iter
    (fun (what, s) ->
      let cd = Cexec.compile (guarded s) in
      let run v =
        Tensor.set_flat_i flag 0 v;
        let y = Tensor.zeros Types.F32 [| 4 |] in
        cd.Cexec.cd_run [ ("flag", flag); ("y", y) ] []
      in
      (* compiles, and runs while the branch is not taken *)
      run 0;
      match run 1 with
      | () -> Alcotest.failf "%s: executed orphan access did not raise" what
      | exception Cexec.Exec_error msg ->
        let needle = "ghost is not live here" in
        let found =
          let ln = String.length needle in
          let rec go k =
            k + ln <= String.length msg
            && (String.sub msg k ln = needle || go (k + 1))
          in
          go 0
        in
        if not found then Alcotest.failf "%s: unexpected message %S" what msg)
    cases

(* ------------------------------------------------------------------ *)
(* Allocation gate                                                    *)

module Sub = Ft_workloads.Subdivnet
module Lf = Ft_workloads.Longformer
module Sr = Ft_workloads.Softras
module Gat = Ft_workloads.Gat
module Tvm = Ft_workloads.Tvmlike

(* Each program auto-scheduled for the CPU, bound to its inputs and
   zeroed outputs. *)
let bind_zeros (fn : Stmt.func) inputs =
  List.map
    (fun (p : Stmt.param) ->
      match List.assoc_opt p.Stmt.p_name inputs with
      | Some t -> (p.Stmt.p_name, t)
      | None ->
        (p.Stmt.p_name, Tensor.zeros p.Stmt.p_dtype (Interp.param_dims p)))
    fn.Stmt.fn_params

let alloc_programs () =
  let sc = { Sub.n_faces = 48; in_feats = 8 } in
  let e, adj = Sub.gen_inputs sc in
  let lc = { Lf.seq_len = 24; feat_len = 8; w = 3 } in
  let q, k, v = Lf.gen_inputs lc in
  let rc = { Sr.img = 8; n_faces = 6; sigma = 0.02 } in
  let cx, cy, r = Sr.gen_inputs rc in
  let gc = { Gat.n_nodes = 24; in_feats = 8; out_feats = 8; avg_degree = 3 } in
  let rowptr, colidx, n_edges = Gat.gen_graph gc in
  let x, w, a1, a2 = Gat.gen_inputs gc in
  let tc = { Tvm.mm_m = 16; mm_n = 16; mm_k = 16 } in
  let ta, tb = Tvm.mm_inputs tc in
  let infer name fn inputs =
    let fn = Auto.run ~device:Types.Cpu fn in
    (name, fn, bind_zeros fn inputs)
  in
  let g = Grad.grad ~mode:Grad.Selective (Lf.ft_func lc) in
  let train_inputs = [ ("Q", q); ("K", k); ("V", v) ] in
  let fwd = Auto.run ~device:Types.Cpu g.Grad.forward in
  let fwd_args = bind_zeros fwd train_inputs in
  let bwd = Auto.run ~device:Types.Cpu g.Grad.backward in
  [ infer "subdivnet" (Sub.ft_func sc) [ ("e", e); ("adj", adj) ];
    infer "longformer" (Lf.ft_func lc) train_inputs;
    infer "softras" (Sr.ft_func rc) [ ("cx", cx); ("cy", cy); ("r", r) ];
    infer "gat" (Gat.ft_func gc ~n_edges)
      [ ("x", x); ("w", w); ("a1", a1); ("a2", a2); ("rowptr", rowptr);
        ("colidx", colidx) ];
    infer "tvmlike" (Tvm.mm_func tc) [ ("A", ta); ("B", tb) ];
    ("longformer.fwd", fwd, fwd_args);
    (* the backward reads the forward's outputs and tapes *)
    ("longformer.bwd", bwd, bind_zeros bwd (fwd_args @ train_inputs)) ]

(* Minor words of one steady-state sequential [cd_run] (after a first
   run has created the recycled buffers), OCaml 5.1 without flambda.
   What remains is argument binding at run entry; any allocation on the
   per-element path scales with the instance and shows up here. *)
let committed_words =
  [ ("subdivnet", 65); ("longformer", 80); ("softras", 77); ("gat", 121);
    ("tvmlike", 65); ("longformer.fwd", 153); ("longformer.bwd", 213) ]

let test_alloc_gate () =
  List.iter
    (fun (name, fn, args) ->
      let cd = Cexec.compile fn in
      cd.Cexec.cd_run args [];
      let w0 = Gc.minor_words () in
      cd.Cexec.cd_run args [];
      let words = int_of_float (Gc.minor_words () -. w0) in
      let want = List.assoc name committed_words in
      if words <> want then
        Alcotest.failf "%s: %d minor words per sequential run, committed %d"
          name words want)
    (alloc_programs ())

(* ------------------------------------------------------------------ *)
(* Recycled state across faults and same-key requests                 *)

(* [t] is a recycled local: the first kernel accumulates into it, so a
   buffer that was not re-zeroed shows in [y]; [acc] is an Inout the
   second kernel mutates, so an argument that was not restored shows in
   [acc] and [y]. *)
let recycle_fn =
  let k = Expr.var "k" in
  Stmt.func "recycle"
    [ Stmt.param "x" Types.F32 [ raw_int 8 ];
      Stmt.param ~atype:Types.Inout "acc" Types.F32 [ raw_int 8 ];
      Stmt.param ~atype:Types.Output "y" Types.F32 [ raw_int 8 ] ]
    (Stmt.var_def "t" Types.F32 Types.Cpu_heap [ raw_int 8 ]
       (Stmt.seq
          [ Stmt.for_ "k" (raw_int 0) (raw_int 8)
              (Stmt.reduce_to "t" [ k ] Types.R_add (Expr.load "x" [ k ]));
            Stmt.for_ "k" (raw_int 0) (raw_int 8)
              (Stmt.reduce_to "acc" [ k ] Types.R_add (Expr.load "t" [ k ]));
            Stmt.for_ "k" (raw_int 0) (raw_int 8)
              (Stmt.store "y" [ k ]
                 (add (load1 "t" k) (load1 "acc" k))) ]))

let recycle_args seed =
  [ ("x", Tensor.rand ~seed Types.F32 [| 8 |]);
    ("acc", Tensor.rand ~seed:(seed + 1) Types.F32 [| 8 |]);
    ("y", Tensor.zeros Types.F32 [| 8 |]) ]

let recycle_expected seed =
  let args = recycle_args seed in
  Interp.run_func recycle_fn args;
  (List.assoc "acc" args, List.assoc "y" args)

let check_recycled what seed args =
  let acc, y = recycle_expected seed in
  if
    not
      (bits_equal acc (List.assoc "acc" args)
      && bits_equal y (List.assoc "y" args))
  then Alcotest.failf "%s: result differs from a fault-free interpreter run"
      what

let test_fault_then_reuse () =
  let srv = Serve.create ~policy:Supervisor.default_policy () in
  (* warm: the artifact's recycled buffer now holds this request's data *)
  let a0 = recycle_args 1 in
  ignore (Serve.serve srv (Serve.request ~id:0 recycle_fn a0));
  check_recycled "warm-up" 1 a0;
  (* kernel 2 faults after [t] and [acc] were both written *)
  let plan = Machine.Fault_plan.of_list [ (2, Machine.F_compute) ] in
  let a1 = recycle_args 2 in
  let r1 = Serve.serve srv (Serve.request ~plan ~id:1 recycle_fn a1) in
  (match r1.Serve.rs_status with
   | Serve.Completed o ->
     if List.length o.Supervisor.attempts < 2 then
       Alcotest.fail "the injected fault did not force a retry";
     if o.Supervisor.result = None then
       Alcotest.fail "faulted request not served"
   | Serve.Rejected d -> Alcotest.failf "rejected: %s" (Diag.to_string d));
  check_recycled "retry after fault" 2 a1;
  let a2 = recycle_args 3 in
  let r2 = Serve.serve srv (Serve.request ~id:2 recycle_fn a2) in
  if not r2.Serve.rs_hit then Alcotest.fail "same-key request missed the cache";
  check_recycled "next same-key request" 3 a2

(* The serving layer keeps same-key requests sequential (one group per
   key), which is what makes per-artifact recycled buffers and snapshot
   buffers sound: a batch of same-key requests dispatched across the
   pool must each still see its own results. *)
let test_same_key_batch () =
  with_domains 4 (fun () ->
      let srv = Serve.create ~policy:Supervisor.default_policy () in
      let args = List.init 16 (fun k -> recycle_args (10 + k)) in
      let rs =
        Serve.serve_batch srv
          (List.mapi
             (fun k a ->
               Serve.request ~deadline:Float.infinity ~id:k recycle_fn a)
             args)
      in
      List.iteri
        (fun k (r : Serve.response) ->
          (match r.Serve.rs_status with
           | Serve.Rejected d ->
             Alcotest.failf "request %d rejected: %s" k (Diag.to_string d)
           | Serve.Completed _ ->
             if not (Serve.served r) then
               Alcotest.failf "request %d not served" k);
          check_recycled (Printf.sprintf "batch member %d" k) (10 + k)
            (List.nth args k))
        rs)

(* ------------------------------------------------------------------ *)
(* Exact guard-check counts under parallelism                         *)

let test_parallel_guard_checks () =
  let sc = { Sub.n_faces = 64; in_feats = 8 } in
  let e, adj = Sub.gen_inputs sc in
  let fn = Auto.run ~device:Types.Cpu (Sub.ft_func sc) in
  let args () = bind_zeros fn [ ("e", e); ("adj", adj) ] in
  let count cd =
    let g = Option.get cd.Cexec.cd_guard in
    let s = Cexec.guard_snapshot g in
    cd.Cexec.cd_run (args ()) [];
    Cexec.guard_checks_since g s
  in
  let seq = count (Cexec.compile ~guard:true fn) in
  if seq = 0 then Alcotest.fail "no runtime guard checks to count";
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let cd = Cexec.compile ~guard:true ~parallel:true fn in
          for round = 1 to 5 do
            let c = count cd in
            if c <> seq then
              Alcotest.failf "%d domains, round %d: %d checks, sequential %d" d
                round c seq
          done))
    [ 1; 2; 4 ]

let suite =
  [ QCheck_alcotest.to_alcotest prop_kinds_bitwise;
    Alcotest.test_case "executed orphan access raises" `Quick
      test_orphan_access;
    Alcotest.test_case "allocation gate (minor words per run)" `Quick
      test_alloc_gate;
    Alcotest.test_case "fault, then recycled buffers and restored args" `Quick
      test_fault_then_reuse;
    Alcotest.test_case "same-key batch across the pool" `Quick
      test_same_key_batch;
    Alcotest.test_case "parallel guard-check count is exact" `Quick
      test_parallel_guard_checks ]
