(* Guarded execution: static bounds proving, the runtime memory
   sanitizer, and structured diagnostics.

   The load-bearing properties, at fuzz scale (QCHECK_COUNT):
   - fault-injection soundness: mutating a well-formed random program
     (out-of-bounds subscript offset, dropped local initialization)
     either faults under [~guard:true] in BOTH executors — with the
     compiled executor's diagnostic byte-identical to the interpreter's
     for bounds faults — or faults in neither;
   - injected out-of-bounds sites are never statically Proved;
   - unmutated programs run guard-clean in both executors with outputs
     bitwise-equal to unguarded execution;
   - statically proved sites are elided in the compiled backend: on an
     all-proved program zero runtime bounds checks are compiled or
     executed. *)

open Ft_ir
open Ft_runtime
module Diag = Ft_ir.Diag
module Boundcheck = Ft_analyze.Boundcheck
module Interp = Ft_backend.Interp
module Cexec = Ft_backend.Compile_exec
module Costmodel = Ft_backend.Costmodel
module Machine = Ft_machine.Machine

let n = Gen_prog.iterations

let catch_diag f =
  match f () with
  | () -> None
  | exception Diag.Diag_error d -> Some d

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

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)

(* Every [Gen_prog] subscript is mod-wrapped, so adding 64 to a store or
   reduce target subscript puts it out of bounds on every execution of
   that statement (all generated dims are <= 12). *)
let count_targets (fn : Stmt.func) =
  Stmt.fold
    (fun k s ->
      match s.Stmt.node with
      | Stmt.Store { s_indices = _ :: _; _ } -> k + 1
      | Stmt.Reduce_to { r_indices = _ :: _; _ } -> k + 1
      | _ -> k)
    0 fn.Stmt.fn_body

let inject_oob pick (fn : Stmt.func) : Stmt.func option =
  let total = count_targets fn in
  if total = 0 then None
  else begin
    let pick = pick mod total in
    let ctr = ref 0 in
    let bump i0 = Expr.add i0 (Expr.int 64) in
    let body =
      Stmt.map_bottom_up
        (fun s ->
          match s.Stmt.node with
          | Stmt.Store { s_var; s_indices = i0 :: rest; s_value } ->
            let k = !ctr in
            incr ctr;
            if k = pick then
              Stmt.with_node s
                (Stmt.Store
                   { s_var; s_indices = bump i0 :: rest; s_value })
            else s
          | Stmt.Reduce_to ({ r_indices = i0 :: rest; _ } as r) ->
            let k = !ctr in
            incr ctr;
            if k = pick then
              Stmt.with_node s
                (Stmt.Reduce_to { r with Stmt.r_indices = bump i0 :: rest })
            else s
          | _ -> s)
        fn.Stmt.fn_body
    in
    Some { fn with Stmt.fn_body = body }
  end

(* Generated locals are always initialized by a loop over a fresh "gz*"
   iterator before the body may read them (see Gen_prog); dropping one
   such loop re-creates the reads-before-writes bug class. *)
let is_init_iter it = String.length it >= 2 && String.sub it 0 2 = "gz"

let count_inits (fn : Stmt.func) =
  Stmt.fold
    (fun k s ->
      match s.Stmt.node with
      | Stmt.For f when is_init_iter f.Stmt.f_iter -> k + 1
      | _ -> k)
    0 fn.Stmt.fn_body

let drop_init pick (fn : Stmt.func) : Stmt.func option =
  let total = count_inits fn in
  if total = 0 then None
  else begin
    let pick = pick mod total in
    let ctr = ref 0 in
    let body =
      Stmt.map_bottom_up
        (fun s ->
          match s.Stmt.node with
          | Stmt.For f when is_init_iter f.Stmt.f_iter ->
            let k = !ctr in
            incr ctr;
            if k = pick then Stmt.nop () else s
          | _ -> s)
        fn.Stmt.fn_body
    in
    Some { fn with Stmt.fn_body = body }
  end

(* ------------------------------------------------------------------ *)
(* Fuzz properties                                                    *)

let prop_oob_mutants =
  QCheck2.Test.make ~count:(n 100)
    ~name:"OOB mutants: unproved statically; both executors fault \
           byte-identically or neither"
    QCheck2.Gen.(tup2 Gen_prog.gen_func (int_range 0 10_000))
    (fun (fn, pick) ->
      match inject_oob pick fn with
      | None -> true
      | Some mfn ->
        let unproved = Boundcheck.unproved (Boundcheck.check_func mfn) in
        let di =
          catch_diag (fun () ->
              Interp.run_func ~guard:true mfn (Gen_prog.fresh_args ()))
        in
        let dc =
          catch_diag (fun () ->
              Cexec.run_func ~guard:true mfn (Gen_prog.fresh_args ()))
        in
        unproved <> []
        &&
        match di, dc with
        | Some a, Some b ->
          (* same first fault, rendered byte-identically, naming the
             statement — and the faulting statement is one the static
             prover reported as unproved *)
          Diag.to_string a = Diag.to_string b
          && (match a.Diag.dg_sid with
              | Some sid ->
                List.exists
                  (fun (s : Boundcheck.site) -> s.Boundcheck.bs_sid = sid)
                  unproved
              | None -> false)
        | None, None -> true (* mutated statement never executed *)
        | _ -> false)

let prop_uninit_mutants =
  QCheck2.Test.make ~count:(n 100)
    ~name:"dropped-init mutants: both executors report the uninitialized \
           tensor or neither faults"
    QCheck2.Gen.(tup2 Gen_prog.gen_func (int_range 0 10_000))
    (fun (fn, pick) ->
      match drop_init pick fn with
      | None -> true
      | Some mfn ->
        let args_i = Gen_prog.fresh_args () in
        let args_c = Gen_prog.fresh_args () in
        let di =
          catch_diag (fun () -> Interp.run_func ~guard:true mfn args_i)
        in
        let dc =
          catch_diag (fun () -> Cexec.run_func ~guard:true mfn args_c)
        in
        match di, dc with
        | Some a, Some b ->
          (* expression subterms evaluate in different orders in the two
             executors, so the first faulting load may differ — but the
             fault class and the poisoned tensor cannot *)
          a.Diag.dg_code = Diag.Uninit_read
          && b.Diag.dg_code = Diag.Uninit_read
          && a.Diag.dg_tensor = b.Diag.dg_tensor
          && a.Diag.dg_sid <> None
          && b.Diag.dg_sid <> None
        | None, None ->
          (* locals are zero-initialized storage, so a silent mutant
             computes the same values in both executors *)
          let yi, zi = Gen_prog.outputs args_i in
          let yc, zc = Gen_prog.outputs args_c in
          bits_equal yi yc && bits_equal zi zc
        | _ -> false)

let prop_unmutated_guard_clean =
  QCheck2.Test.make ~count:(n 100)
    ~name:"unmutated programs: guard-clean in both executors, outputs \
           bitwise-equal to unguarded execution"
    Gen_prog.gen_func
    (fun fn ->
      let args_u = Gen_prog.fresh_args () in
      Cexec.run_func fn args_u;
      let args_g = Gen_prog.fresh_args () in
      Cexec.run_func ~guard:true fn args_g;
      let args_i = Gen_prog.fresh_args () in
      Interp.run_func ~guard:true fn args_i;
      let yu, zu = Gen_prog.outputs args_u in
      let yg, zg = Gen_prog.outputs args_g in
      let yi, zi = Gen_prog.outputs args_i in
      bits_equal yu yg && bits_equal zu zg && bits_equal yu yi
      && bits_equal zu zi)

(* ------------------------------------------------------------------ *)
(* Elision of proved sites                                            *)

(* 4x4 matmul with static shapes and affine subscripts: every access
   site is provable, so the compiled guard must add zero runtime bounds
   checks. *)
let matmul_fn =
  Stmt.func "mm"
    [ Stmt.param "A" Types.F32 [ Expr.int 4; Expr.int 4 ];
      Stmt.param "B" Types.F32 [ Expr.int 4; Expr.int 4 ];
      Stmt.param ~atype:Types.Output "C" Types.F32 [ Expr.int 4; Expr.int 4 ]
    ]
    (Stmt.for_ "i" (Expr.int 0) (Expr.int 4)
       (Stmt.for_ "j" (Expr.int 0) (Expr.int 4)
          (Stmt.seq
             [ Stmt.store "C" [ Expr.var "i"; Expr.var "j" ] (Expr.float 0.);
               Stmt.for_ "k" (Expr.int 0) (Expr.int 4)
                 (Stmt.reduce_to "C"
                    [ Expr.var "i"; Expr.var "j" ]
                    Types.R_add
                    (Expr.mul
                       (Expr.load "A" [ Expr.var "i"; Expr.var "k" ])
                       (Expr.load "B" [ Expr.var "k"; Expr.var "j" ]))) ])))

let mm_args () =
  [ ("A", Tensor.rand ~seed:3 Types.F32 [| 4; 4 |]);
    ("B", Tensor.rand ~seed:4 Types.F32 [| 4; 4 |]);
    ("C", Tensor.zeros Types.F32 [| 4; 4 |]) ]

let test_elision () =
  Alcotest.(check bool)
    "every matmul site is statically proved" true
    (Boundcheck.all_proved (Boundcheck.check_func matmul_fn));
  let cd = Cexec.compile ~guard:true matmul_fn in
  let st =
    match cd.Cexec.cd_guard with
    | Some st -> st
    | None -> Alcotest.fail "guarded compile returned no stats"
  in
  Alcotest.(check int) "no site compiled a runtime check" 0
    st.Cexec.gs_checked;
  Alcotest.(check bool) "every site elided" true
    (st.Cexec.gs_elided = st.Cexec.gs_sites && st.Cexec.gs_sites > 0);
  let args_g = mm_args () in
  cd.Cexec.cd_run args_g [];
  Alcotest.(check int) "no runtime check executed" 0 st.Cexec.gs_checks;
  let args_u = mm_args () in
  Cexec.run_func matmul_fn args_u;
  Alcotest.(check bool) "guarded result bitwise-equal to unguarded" true
    (bits_equal (List.assoc "C" args_g) (List.assoc "C" args_u))

(* ------------------------------------------------------------------ *)
(* Runtime sanitizer regressions                                      *)

let test_uninit_regression () =
  let fn =
    Stmt.func "uninit"
      [ Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.int 2 ] ]
      (Stmt.var_def "tmp" Types.F32 Types.Cpu_stack [ Expr.int 4 ]
         (Stmt.seq
            [ Stmt.store "tmp" [ Expr.int 0 ] (Expr.float 1.0);
              Stmt.for_ "i" (Expr.int 0) (Expr.int 2)
                (Stmt.store "y" [ Expr.var "i" ]
                   (Expr.load "tmp" [ Expr.var "i" ])) ]))
  in
  let args () = [ ("y", Tensor.zeros Types.F32 [| 2 |]) ] in
  let di = catch_diag (fun () -> Interp.run_func ~guard:true fn (args ())) in
  let dc = catch_diag (fun () -> Cexec.run_func ~guard:true fn (args ())) in
  match di, dc with
  | Some a, Some b ->
    Alcotest.(check bool) "interp code is uninit-read" true
      (a.Diag.dg_code = Diag.Uninit_read);
    Alcotest.(check (option string)) "tensor named" (Some "tmp")
      a.Diag.dg_tensor;
    Alcotest.(check (list (pair string int))) "iteration vector" [ ("i", 1) ]
      a.Diag.dg_iters;
    Alcotest.(check string) "byte-identical diagnostics"
      (Diag.to_string a) (Diag.to_string b)
  | _ -> Alcotest.fail "expected an uninitialized-read fault in both"

let test_nan_regression () =
  let fn =
    Stmt.func "nanprog"
      [ Stmt.param "x" Types.F32 [ Expr.int 1 ];
        Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.int 1 ] ]
      (Stmt.store "y" [ Expr.int 0 ]
         (Expr.sub
            (Expr.load "x" [ Expr.int 0 ])
            (Expr.load "x" [ Expr.int 0 ])))
  in
  let args () =
    [ ("x", Tensor.of_float_array Types.F32 [| 1 |] [| infinity |]);
      ("y", Tensor.zeros Types.F32 [| 1 |]) ]
  in
  let di = catch_diag (fun () -> Interp.run_func ~guard:true fn (args ())) in
  let dc = catch_diag (fun () -> Cexec.run_func ~guard:true fn (args ())) in
  match di, dc with
  | Some a, Some b ->
    Alcotest.(check bool) "code is nonfinite-store" true
      (a.Diag.dg_code = Diag.Nonfinite_store);
    Alcotest.(check string) "byte-identical diagnostics"
      (Diag.to_string a) (Diag.to_string b)
  | _ -> Alcotest.fail "expected a NaN-poison fault in both executors"

(* -inf is a legitimate masking sentinel (softmax-style): storing it as
   a literal and max-reducing over it must NOT fault. *)
let test_inf_mask_allowed () =
  let fn =
    Stmt.func "mask"
      [ Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.int 1 ] ]
      (Stmt.var_def "mx" Types.F32 Types.Cpu_stack [ Expr.int 1 ]
         (Stmt.seq
            [ Stmt.store "mx" [ Expr.int 0 ] (Expr.float neg_infinity);
              Stmt.reduce_to "mx" [ Expr.int 0 ] Types.R_max
                (Expr.load "mx" [ Expr.int 0 ]);
              Stmt.store "y" [ Expr.int 0 ] (Expr.float 0.) ]))
  in
  let args () = [ ("y", Tensor.zeros Types.F32 [| 1 |]) ] in
  Interp.run_func ~guard:true fn (args ());
  Cexec.run_func ~guard:true fn (args ());
  ()

(* ------------------------------------------------------------------ *)
(* Graceful degradation on unproved sites                             *)

(* x[idx[i]]: data-dependent subscript, inherently unprovable. *)
let indirect_fn =
  Stmt.func "indirect"
    [ Stmt.param "x" Types.F32 [ Expr.int 12 ];
      Stmt.param "idx" Types.I32 [ Expr.int 12 ];
      Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.int 12 ] ]
    (Stmt.for_ "i" (Expr.int 0) (Expr.int 12)
       (Stmt.store "y" [ Expr.var "i" ]
          (Expr.load "x" [ Expr.load "idx" [ Expr.var "i" ] ])))

let indirect_args ?(bad = false) () =
  let idx = Tensor.randint ~seed:7 ~lo:0 ~hi:12 Types.I32 [| 12 |] in
  if bad then Tensor.set_i idx [| 3 |] 50;
  [ ("x", Tensor.rand ~seed:5 Types.F32 [| 12 |]);
    ("idx", idx);
    ("y", Tensor.zeros Types.F32 [| 12 |]) ]

let test_check_catches_bad_data () =
  let di =
    catch_diag (fun () ->
        Interp.run_func ~guard:true indirect_fn (indirect_args ~bad:true ()))
  in
  let dc =
    catch_diag (fun () ->
        Cexec.run_func ~guard:true indirect_fn (indirect_args ~bad:true ()))
  in
  match di, dc with
  | Some a, Some b ->
    Alcotest.(check bool) "oob-load code" true (a.Diag.dg_code = Diag.Oob_load);
    Alcotest.(check (list (pair string int))) "iteration vector" [ ("i", 3) ]
      a.Diag.dg_iters;
    Alcotest.(check string) "byte-identical diagnostics"
      (Diag.to_string a) (Diag.to_string b)
  | _ -> Alcotest.fail "expected an OOB fault in both executors"

(* ------------------------------------------------------------------ *)
(* Unified entry diagnostics                                          *)

let entry_msg f =
  match f () with
  | () -> Alcotest.fail "expected an entry error"
  | exception Interp.Interp_error m -> m
  | exception Cexec.Exec_error m -> m

let test_entry_differential () =
  let args_missing = List.remove_assoc "B" (mm_args ()) in
  Alcotest.(check string) "missing argument: identical messages"
    (entry_msg (fun () ->
         Interp.run_func ~guard:true matmul_fn args_missing))
    (entry_msg (fun () -> Cexec.run_func ~guard:true matmul_fn args_missing));
  let args_unknown = ("D", Tensor.zeros Types.F32 [| 1 |]) :: mm_args () in
  Alcotest.(check string) "unknown argument: identical messages"
    (entry_msg (fun () ->
         Interp.run_func ~guard:true matmul_fn args_unknown))
    (entry_msg (fun () -> Cexec.run_func ~guard:true matmul_fn args_unknown));
  let args_shape =
    ("A", Tensor.zeros Types.F32 [| 3; 4 |])
    :: List.remove_assoc "A" (mm_args ())
  in
  Alcotest.(check string) "shape mismatch: identical messages"
    (entry_msg (fun () -> Interp.run_func ~guard:true matmul_fn args_shape))
    (entry_msg (fun () -> Cexec.run_func ~guard:true matmul_fn args_shape))

(* ------------------------------------------------------------------ *)
(* GPU per-kernel resource validation                                 *)

let thread_prop =
  { Stmt.default_property with Stmt.parallel = Some Types.Cuda_thread_x }

let test_gpu_resource_limits () =
  (* direct: the spec's hard limits *)
  Machine.validate_kernel Machine.gpu ~fn:"k" ~threads_per_block:1024
    ~shared_bytes:98304.0 ();
  (match
     Machine.validate_kernel Machine.gpu ~fn:"k" ~threads_per_block:2048
       ~shared_bytes:0.0 ()
   with
   | () -> Alcotest.fail "expected a threads-per-block fault"
   | exception Diag.Diag_error d ->
     Alcotest.(check bool) "gpu-resources code" true
       (d.Diag.dg_code = Diag.Gpu_resources));
  (match
     Machine.validate_kernel Machine.gpu ~fn:"k" ~threads_per_block:1
       ~shared_bytes:2.0e5 ()
   with
   | () -> Alcotest.fail "expected a shared-memory fault"
   | exception Diag.Diag_error _ -> ());
  (* the CPU limits are infinite *)
  Machine.validate_kernel Machine.cpu ~fn:"k" ~threads_per_block:1_000_000
    ~shared_bytes:1.0e12 ()

let test_costmodel_validates_kernels () =
  let big_block =
    Stmt.func "bigblock"
      [ Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.int 12 ] ]
      (Stmt.for_ ~property:thread_prop "i" (Expr.int 0) (Expr.int 2048)
         (Stmt.store "y"
            [ Expr.mod_ (Expr.var "i") (Expr.int 12) ]
            (Expr.float 1.0)))
  in
  (match Costmodel.estimate ~device:Types.Gpu big_block with
   | (_ : Machine.metrics) ->
     Alcotest.fail "expected a threads-per-block fault"
   | exception Diag.Diag_error d ->
     Alcotest.(check bool) "gpu-resources code" true
       (d.Diag.dg_code = Diag.Gpu_resources);
     Alcotest.(check bool) "statement named" true (d.Diag.dg_sid <> None));
  (* the same kernel prices fine on the CPU model *)
  let (_ : Machine.metrics) = Costmodel.estimate ~device:Types.Cpu big_block in
  let big_shared =
    Stmt.func "bigshared"
      [ Stmt.param ~atype:Types.Output "y" Types.F32 [ Expr.int 12 ] ]
      (Stmt.for_ ~property:thread_prop "i" (Expr.int 0) (Expr.int 32)
         (Stmt.var_def "sh" Types.F32 Types.Gpu_shared [ Expr.int 30_000 ]
            (Stmt.seq
               [ Stmt.store "sh" [ Expr.int 0 ] (Expr.float 0.0);
                 Stmt.store "y"
                   [ Expr.mod_ (Expr.var "i") (Expr.int 12) ]
                   (Expr.load "sh" [ Expr.int 0 ]) ])))
  in
  match Costmodel.estimate ~device:Types.Gpu big_shared with
  | (_ : Machine.metrics) -> Alcotest.fail "expected a shared-memory fault"
  | exception Diag.Diag_error d ->
    Alcotest.(check bool) "gpu-resources code" true
      (d.Diag.dg_code = Diag.Gpu_resources)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_oob_mutants; prop_uninit_mutants; prop_unmutated_guard_clean ]
  @ [ Alcotest.test_case "proved sites are elided" `Quick test_elision;
      Alcotest.test_case "uninitialized-read regression" `Quick
        test_uninit_regression;
      Alcotest.test_case "NaN-poison regression" `Quick test_nan_regression;
      Alcotest.test_case "-inf masking is allowed" `Quick
        test_inf_mask_allowed;
      Alcotest.test_case "runtime check catches bad data" `Quick
        test_check_catches_bad_data;
      Alcotest.test_case "entry diagnostics are byte-identical" `Quick
        test_entry_differential;
      Alcotest.test_case "GPU per-block resource limits" `Quick
        test_gpu_resource_limits;
      Alcotest.test_case "cost model validates kernel resources" `Quick
        test_costmodel_validates_kernels ]
