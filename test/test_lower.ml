(* The IR lowering pipeline (lib/lower): each pass is idempotent and
   bitwise semantics-preserving on randomly generated programs, the
   blockization pass recognizes each microkernel shape and the compiled
   microkernels stay bitwise equal to the scalar interpreter for every
   float dtype, and the FT_LOWER_INJECT probe's deliberate miscompile is
   actually observable. *)

open Ft_ir
open Ft_runtime
module Interp = Ft_backend.Interp
module Cexec = Ft_backend.Compile_exec
module Pass = Ft_lower.Pass
module Tvm = Ft_workloads.Tvmlike
module Prog = Ft_litmus.Prog

let n = Gen_prog.iterations
let i = Expr.int

let bits_equal = Ft_litmus.Oracle.bits_equal

let rec count_mk (s : Stmt.t) =
  (match s.Stmt.node with Stmt.Microkernel _ -> 1 | _ -> 0)
  + List.fold_left (fun a c -> a + count_mk c) 0 (Stmt.children s)

(* Scoped environment override, always restored. *)
let with_env key value f =
  let saved = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect
    ~finally:(fun () ->
      match saved with
      | Some v -> Unix.putenv key v
      | None -> Unix.putenv key "")
    f

(* ------------------------------------------------------------------ *)
(* Kernel-shape programs, dtype-parameterized.  Each is the exact nest
   {!Ft_lower.Blockize} recognizes; [expect_mk] is the kernel name the
   lowered tree must contain. *)

let kdim = 17 (* odd: exercises the register tile's tail loop *)

let matmul_fn dt =
  let m, nn, kd = (5, 7, kdim) in
  Stmt.func "mm"
    [ Stmt.param "A" dt [ i m; i kd ];
      Stmt.param "B" dt [ i kd; i nn ];
      Stmt.param ~atype:Types.Output "C" dt [ i m; i nn ] ]
    (Stmt.for_ "i" (i 0) (i m)
       (Stmt.for_ "j" (i 0) (i nn)
          (Stmt.seq
             [ Stmt.store "C" [ Expr.var "i"; Expr.var "j" ] (Expr.float 0.);
               Stmt.for_ "k" (i 0) (i kd)
                 (Stmt.reduce_to "C"
                    [ Expr.var "i"; Expr.var "j" ]
                    Types.R_add
                    (Expr.mul
                       (Expr.load "A" [ Expr.var "i"; Expr.var "k" ])
                       (Expr.load "B" [ Expr.var "k"; Expr.var "j" ]))) ])))

let dot_fn dt =
  Stmt.func "dot"
    [ Stmt.param "a" dt [ i kdim ];
      Stmt.param "b" dt [ i kdim ];
      Stmt.param ~atype:Types.Output "d" dt [ i 1 ] ]
    (Stmt.for_ "k" (i 0) (i kdim)
       (Stmt.reduce_to "d" [ i 0 ] Types.R_add
          (Expr.mul
             (Expr.load "a" [ Expr.var "k" ])
             (Expr.load "b" [ Expr.var "k" ]))))

let axpy_fn dt =
  Stmt.func "axpy"
    [ Stmt.param "a" dt [ i kdim ];
      Stmt.param "b" dt [ i kdim ];
      Stmt.param ~atype:Types.Output "d" dt [ i kdim ] ]
    (Stmt.for_ "k" (i 0) (i kdim)
       (Stmt.reduce_to "d" [ Expr.var "k" ] Types.R_add
          (Expr.mul
             (Expr.load "a" [ Expr.var "k" ])
             (Expr.load "b" [ Expr.var "k" ]))))

let reduce_fn dt =
  Stmt.func "red"
    [ Stmt.param "a" dt [ i kdim ];
      Stmt.param ~atype:Types.Output "d" dt [ i 1 ] ]
    (Stmt.for_ "k" (i 0) (i kdim)
       (Stmt.reduce_to "d" [ i 0 ] Types.R_add (Expr.load "a" [ Expr.var "k" ])))

let kernel_cases dt =
  [ ("matmul", matmul_fn dt,
     fun seed ->
       [ ("A", Tensor.rand ~seed dt [| 5; kdim |]);
         ("B", Tensor.rand ~seed:(seed + 1) dt [| kdim; 7 |]);
         ("C", Tensor.zeros dt [| 5; 7 |]) ]);
    ("dot", dot_fn dt,
     fun seed ->
       [ ("a", Tensor.rand ~seed dt [| kdim |]);
         ("b", Tensor.rand ~seed:(seed + 1) dt [| kdim |]);
         ("d", Tensor.zeros dt [| 1 |]) ]);
    ("axpy", axpy_fn dt,
     fun seed ->
       [ ("a", Tensor.rand ~seed dt [| kdim |]);
         ("b", Tensor.rand ~seed:(seed + 1) dt [| kdim |]);
         ("d", Tensor.zeros dt [| kdim |]) ]);
    ("reduce", reduce_fn dt,
     fun seed ->
       [ ("a", Tensor.rand ~seed dt [| kdim |]);
         ("d", Tensor.zeros dt [| 1 |]) ]) ]

let outputs_of fn args =
  List.filter
    (fun (name, _) ->
      List.exists
        (fun (p : Stmt.param) ->
          p.Stmt.p_name = name && p.Stmt.p_atype = Types.Output)
        fn.Stmt.fn_params)
    args

(* ------------------------------------------------------------------ *)

let test_blockize_recognizes () =
  List.iter
    (fun (mk, fn, _) ->
      let lowered = Pass.lower fn in
      Alcotest.(check int)
        (Printf.sprintf "%s: exactly one microkernel nest" mk)
        1
        (count_mk lowered.Stmt.fn_body);
      let rec has (s : Stmt.t) =
        (match s.Stmt.node with
         | Stmt.Microkernel { mk = m; _ } -> m = mk
         | _ -> false)
        || List.exists has (Stmt.children s)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: kernel name matches" mk)
        true
        (has lowered.Stmt.fn_body))
    (kernel_cases Types.F32)

let test_microkernel_bitwise () =
  (* For every float dtype and kernel shape: interpreter (scalar,
     unlowered), compiled with microkernels, and compiled with the
     pipeline off all agree to the last mantissa bit. *)
  List.iter
    (fun dt ->
      List.iter
        (fun (mk, fn, mk_args) ->
          let label what =
            Printf.sprintf "%s/%s: %s" mk (Types.dtype_to_string dt) what
          in
          let args_i = mk_args 5 in
          Interp.run_func fn args_i;
          let refs = outputs_of fn args_i in
          let args_c = mk_args 5 in
          Cexec.run_func fn args_c;
          List.iter2
            (fun (name, r) (_, c) ->
              Alcotest.(check bool)
                (label (name ^ " microkernel bitwise vs interp"))
                true (bits_equal r c))
            refs (outputs_of fn args_c);
          let args_n = mk_args 5 in
          with_env "FT_LOWER" "0" (fun () -> Cexec.run_func fn args_n);
          List.iter2
            (fun (name, r) (_, c) ->
              Alcotest.(check bool)
                (label (name ^ " nolower bitwise vs interp"))
                true (bits_equal r c))
            refs (outputs_of fn args_n))
        (kernel_cases dt))
    [ Types.F32; Types.F64 ]

let test_pass_idempotent () =
  (* canonical_string quotients statement ids and bound names, which
     rebuilt trees legitimately refresh. *)
  let canon fn = Prog.canonical_string fn in
  let subjects =
    [ matmul_fn Types.F32; dot_fn Types.F64; axpy_fn Types.F32;
      reduce_fn Types.F64;
      Tvm.mm_func { Tvm.mm_m = 8; mm_n = 8; mm_k = 8 };
      Prog.to_func
        (Prog.of_string "(for 4 (if even (y+ it prod)) (y= it x:it))");
      Prog.to_func (Prog.of_string "(local 3 (t= it x:it) (y+ it t:it))") ]
  in
  List.iter
    (fun fn ->
      List.iter
        (fun (p : Pass.pass) ->
          let once = p.Pass.p_run fn in
          let twice = p.Pass.p_run once in
          Alcotest.(check string)
            (Printf.sprintf "%s idempotent on %s" p.Pass.p_name
               fn.Stmt.fn_name)
            (canon once) (canon twice))
        Pass.base_passes;
      (* and the whole pipeline is a fixed point of itself *)
      let once = Pass.lower fn in
      Alcotest.(check string)
        ("pipeline idempotent on " ^ fn.Stmt.fn_name)
        (canon once)
        (canon (Pass.lower once)))
    subjects

let prop_lower_preserves_bitwise =
  QCheck2.Test.make ~count:(n 120)
    ~name:"random programs: lowering pipeline preserves semantics bitwise"
    Gen_prog.gen_func
    (fun fn ->
      let args_a = Gen_prog.fresh_args () in
      Interp.run_func fn args_a;
      let ya, za = Gen_prog.outputs args_a in
      let args_b = Gen_prog.fresh_args () in
      Interp.run_func (Pass.lower fn) args_b;
      let yb, zb = Gen_prog.outputs args_b in
      bits_equal ya yb && bits_equal za zb)

let test_inject_observable () =
  (* The CI probe: with FT_LOWER_INJECT=1 the pipeline appends a
     deliberately wrong pass, and the compiled matmul must diverge from
     the interpreter on the unlowered tree. *)
  let fn = matmul_fn Types.F32 in
  let _, _, mk_args =
    List.nth (kernel_cases Types.F32) 0
  in
  let args_i = mk_args 7 in
  Interp.run_func fn args_i;
  let refs = outputs_of fn args_i in
  let args_c = mk_args 7 in
  with_env "FT_LOWER_INJECT" "1" (fun () -> Cexec.run_func fn args_c);
  let diverged =
    List.exists2
      (fun (_, r) (_, c) -> not (bits_equal r c))
      refs (outputs_of fn args_c)
  in
  Alcotest.(check bool) "injected miscompile observable" true diverged

let test_ft_lower_gate () =
  let fn = matmul_fn Types.F32 in
  with_env "FT_LOWER" "0" (fun () ->
      Alcotest.(check bool) "FT_LOWER=0 disables the pipeline" false
        (Pass.enabled ()));
  Alcotest.(check bool) "pipeline on by default" true (Pass.enabled ());
  Alcotest.(check (list string))
    "pass order is normalize, hoist, blockize"
    [ "normalize"; "hoist"; "blockize" ]
    (Pass.pass_names ());
  ignore fn

let suite =
  [ Alcotest.test_case "blockize recognizes all four kernel shapes" `Quick
      test_blockize_recognizes;
    Alcotest.test_case "microkernels bitwise across dtypes and executors"
      `Quick test_microkernel_bitwise;
    Alcotest.test_case "each pass and the pipeline are idempotent" `Quick
      test_pass_idempotent;
    QCheck_alcotest.to_alcotest prop_lower_preserves_bitwise;
    Alcotest.test_case "FT_LOWER_INJECT miscompile is observable" `Quick
      test_inject_observable;
    Alcotest.test_case "FT_LOWER gate and pass order" `Quick
      test_ft_lower_gate ]
