(* Differential tests for the domain-pool parallel compiled executor:
   parallel execution must be *bitwise* identical to sequential compiled
   execution and to the reference interpreter for every pool size,
   every run, and every randomly generated parallel-legal program. *)

open Ft_ir
open Ft_runtime
module Interp = Ft_backend.Interp
module Cexec = Ft_backend.Compile_exec
module Exec_par = Ft_backend.Exec_par

let n = Gen_prog.iterations

(* Random Reduce-mode programs (mixed-op reductions) and the prefix-sum
   case below legitimately demote to sequential under the race verifier;
   keep their per-loop notices off stderr during the sweep. *)
let () = Cexec.race_logger := ignore

(* bitwise float equality, element for element *)
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

let run_with runner (fn : Stmt.func) =
  let args = Gen_prog.fresh_args () in
  runner fn args;
  Gen_prog.outputs args

let with_domains k f =
  let saved = Exec_par.num_domains () in
  Exec_par.set_num_domains k;
  Fun.protect ~finally:(fun () -> Exec_par.set_num_domains saved) f

(* {1 Random differential properties} *)

let prop_par_vs_seq_vs_interp =
  QCheck2.Test.make ~count:(n 120)
    ~name:"random parallel programs: parallel == sequential == interpreter"
    Gen_prog.gen_par_func
    (fun fn ->
      let interp = run_with (fun f a -> Interp.run_func f a) fn in
      let seq = run_with (fun f a -> Cexec.run_func f a) fn in
      let par =
        with_domains 8 (fun () ->
            run_with (fun f a -> Cexec.run_func ~parallel:true f a) fn)
      in
      outs_bits_equal interp seq && outs_bits_equal seq par)

let prop_par_determinism =
  QCheck2.Test.make ~count:(n 60)
    ~name:
      "random parallel programs: bitwise deterministic across runs and pool \
       sizes"
    Gen_prog.gen_par_func
    (fun fn ->
      let seq = run_with (fun f a -> Cexec.run_func f a) fn in
      List.for_all
        (fun k ->
          with_domains k (fun () ->
              let c = Cexec.compile ~parallel:true fn in
              let once () =
                let args = Gen_prog.fresh_args () in
                c.Cexec.cd_run args [];
                Gen_prog.outputs args
              in
              outs_bits_equal seq (once ()) && outs_bits_equal seq (once ())))
        [ 1; 2; 8 ])

(* {1 Hand-built cases} *)

let par_prop =
  { Stmt.default_property with Stmt.parallel = Some Types.Openmp }

let check_bits msg a b =
  if not (bits_equal a b) then Alcotest.failf "%s: tensors differ bitwise" msg

(* global sum: 256 additions into one cell — the canonical order-matters
   reduction; deferred logs replayed in chunk order must reproduce the
   sequential association exactly *)
let test_reduction_determinism () =
  let nn = 256 in
  let fn =
    Stmt.func "gsum"
      [ Stmt.param "a" Types.F32 [ Expr.int nn ];
        Stmt.param ~atype:Types.Output "s" Types.F32 [ Expr.int 1 ] ]
      (Stmt.for_ ~property:par_prop "i" (Expr.int 0) (Expr.int nn)
         (Stmt.reduce_to "s" [ Expr.int 0 ] Types.R_add
            (Expr.mul
               (Expr.load "a" [ Expr.var "i" ])
               (Expr.load "a" [ Expr.mod_ (Expr.mul (Expr.int 7) (Expr.var "i")) (Expr.int nn) ]))))
  in
  let a = Tensor.rand ~seed:3 ~lo:(-1.0) ~hi:1.0 Types.F32 [| nn |] in
  let run runner =
    let s = Tensor.zeros Types.F32 [| 1 |] in
    runner fn [ ("a", a); ("s", s) ];
    s
  in
  let si = run (fun f a -> Interp.run_func f a) in
  let ss = run (fun f a -> Cexec.run_func f a) in
  check_bits "interp vs seq" si ss;
  List.iter
    (fun k ->
      with_domains k (fun () ->
          let sp = run (fun f a -> Cexec.run_func ~parallel:true f a) in
          check_bits (Printf.sprintf "seq vs par(%d domains)" k) ss sp))
    [ 1; 2; 5; 8; 16 ]

(* a body that loads the tensor it reduces into (a running prefix sum)
   is not parallel-legal and must fall back to sequential execution *)
let test_illegal_falls_back () =
  let nn = 32 in
  let fn =
    Stmt.func "prefix"
      [ Stmt.param "a" Types.F32 [ Expr.int nn ];
        Stmt.param ~atype:Types.Output "acc" Types.F32 [ Expr.int 1 ];
        Stmt.param ~atype:Types.Output "out" Types.F32 [ Expr.int nn ] ]
      (Stmt.for_ ~property:par_prop "i" (Expr.int 0) (Expr.int nn)
         (Stmt.seq
            [ Stmt.reduce_to "acc" [ Expr.int 0 ] Types.R_add
                (Expr.load "a" [ Expr.var "i" ]);
              Stmt.store "out" [ Expr.var "i" ]
                (Expr.load "acc" [ Expr.int 0 ]) ]))
  in
  let a = Tensor.rand ~seed:7 Types.F32 [| nn |] in
  let run runner =
    let acc = Tensor.zeros Types.F32 [| 1 |] in
    let out = Tensor.zeros Types.F32 [| nn |] in
    runner fn [ ("a", a); ("acc", acc); ("out", out) ];
    (acc, out)
  in
  let acc_i, out_i = run (fun f a -> Interp.run_func f a) in
  with_domains 8 (fun () ->
      let acc_p, out_p = run (fun f a -> Cexec.run_func ~parallel:true f a) in
      check_bits "prefix acc" acc_i acc_p;
      check_bits "prefix out" out_i out_p)

(* static shapes with non-unit strides: exercises constant-stride and
   strength-reduced offset compilation against the interpreter *)
let test_strength_reduction_strided () =
  let r = 7 and c = 13 in
  let fn =
    Stmt.func "strided"
      [ Stmt.param "m" Types.F32 [ Expr.int r; Expr.int c ];
        Stmt.param ~atype:Types.Output "o" Types.F32 [ Expr.int c; Expr.int r ]
      ]
      (Stmt.for_ "i" (Expr.int 0) (Expr.int r)
         (Stmt.for_ "j" (Expr.int 0) (Expr.int c)
            (* transpose with an affine row offset and a non-affine
               (mod) column read folded in *)
            (Stmt.store "o"
               [ Expr.var "j"; Expr.var "i" ]
               (Expr.add
                  (Expr.load "m" [ Expr.var "i"; Expr.var "j" ])
                  (Expr.load "m"
                     [ Expr.var "i";
                       Expr.mod_
                         (Expr.add (Expr.mul (Expr.int 5) (Expr.var "j"))
                            (Expr.int 3))
                         (Expr.int c) ])))))
  in
  let m = Tensor.rand ~seed:5 Types.F32 [| r; c |] in
  let run runner =
    let o = Tensor.zeros Types.F32 [| c; r |] in
    runner fn [ ("m", m); ("o", o) ];
    o
  in
  check_bits "strided transpose"
    (run (fun f a -> Interp.run_func f a))
    (run (fun f a -> Cexec.run_func f a))

(* dynamically-shaped parameters bound through [sizes] take the generic
   offset path; results must still match the interpreter *)
let test_dynamic_shapes () =
  let fn =
    Stmt.func "dyn"
      [ Stmt.param "x" Types.F32 [ Expr.var "n" ];
        Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.var "n" ] ]
      (Stmt.for_ "i" (Expr.int 0) (Expr.var "n")
         (Stmt.store "y" [ Expr.var "i" ]
            (Expr.mul (Expr.float 2.0) (Expr.load "x" [ Expr.var "i" ]))))
  in
  let nn = 9 in
  let x = Tensor.rand ~seed:2 Types.F32 [| nn |] in
  let run runner =
    let y = Tensor.zeros Types.F32 [| nn |] in
    runner fn [ ("x", x); ("y", y) ];
    y
  in
  check_bits "dynamic shapes"
    (run (fun f a -> Interp.run_func ~sizes:[ ("n", nn) ] f a))
    (run (fun f a -> Cexec.run_func ~sizes:[ ("n", nn) ] f a))

(* the executor rejects unknown arguments, unknown sizes and
   statically-contradicted shapes instead of silently ignoring them *)
let test_strict_binding () =
  let fn =
    Stmt.func "strict"
      [ Stmt.param "x" Types.F32 [ Expr.int 4 ];
        Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.int 4 ] ]
      (Stmt.for_ "i" (Expr.int 0) (Expr.int 4)
         (Stmt.store "y" [ Expr.var "i" ] (Expr.load "x" [ Expr.var "i" ])))
  in
  let x = Tensor.zeros Types.F32 [| 4 |] in
  let y = Tensor.zeros Types.F32 [| 4 |] in
  let expect_err what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Exec_error" what
    | exception Cexec.Exec_error _ -> ()
  in
  Cexec.run_func fn [ ("x", x); ("y", y) ];
  expect_err "unknown argument" (fun () ->
      Cexec.run_func fn [ ("x", x); ("y", y); ("bogus", x) ]);
  expect_err "missing argument" (fun () -> Cexec.run_func fn [ ("x", x) ]);
  expect_err "unknown size" (fun () ->
      Cexec.run_func ~sizes:[ ("n", 3) ] fn [ ("x", x); ("y", y) ]);
  expect_err "shape mismatch" (fun () ->
      Cexec.run_func fn
        [ ("x", Tensor.zeros Types.F32 [| 5 |]); ("y", y) ])

(* pool plumbing: exceptions from any chunk surface on the caller and
   the pool remains usable afterwards *)
let test_pool_exceptions () =
  with_domains 4 (fun () ->
      (match
         Exec_par.run_chunks 4 (fun ci ->
             if ci = 3 then failwith "chunk boom")
       with
      | () -> Alcotest.fail "expected chunk exception to propagate"
      | exception Failure m -> Alcotest.(check string) "msg" "chunk boom" m);
      let hits = Array.make 4 0 in
      Exec_par.run_chunks 4 (fun ci -> hits.(ci) <- hits.(ci) + 1);
      Alcotest.(check (list int))
        "all chunks ran after failure" [ 1; 1; 1; 1 ]
        (Array.to_list hits))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_par_vs_seq_vs_interp; prop_par_determinism ]
  @ [ Alcotest.test_case "reduction determinism" `Quick
        test_reduction_determinism;
      Alcotest.test_case "illegal body falls back" `Quick
        test_illegal_falls_back;
      Alcotest.test_case "strength reduction, non-unit strides" `Quick
        test_strength_reduction_strided;
      Alcotest.test_case "dynamic shapes via sizes" `Quick
        test_dynamic_shapes;
      Alcotest.test_case "strict argument binding" `Quick test_strict_binding;
      Alcotest.test_case "pool exception propagation" `Quick
        test_pool_exceptions ]
