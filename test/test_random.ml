(* Differential testing on randomly generated programs (see Gen_prog):
   the reference interpreter, the closure-compiling executor, every
   cleanup pass, the auto-scheduler and random schedule pipelines must
   all compute identical outputs. *)

open Ft_ir
open Ft_runtime
module Interp = Ft_backend.Interp
module Cexec = Ft_backend.Compile_exec
module Profile = Ft_profile.Profile

(* All counts respect the QCHECK_COUNT environment override. *)
let n = Gen_prog.iterations

let run_with runner (fn : Stmt.func) =
  let args = Gen_prog.fresh_args () in
  runner fn args;
  Gen_prog.outputs args

let same (y1, z1) (y2, z2) =
  Tensor.all_close ~tol:1e-4 y1 y2 && Tensor.all_close ~tol:1e-4 z1 z2

let prop_interp_vs_compiled =
  QCheck2.Test.make ~count:(n 150)
    ~name:"random programs: interpreter == compiled executor"
    Gen_prog.gen_func
    (fun fn ->
      same
        (run_with (fun f a -> Interp.run_func f a) fn)
        (run_with (fun f a -> Cexec.run_func f a) fn))

let prop_passes_preserve =
  QCheck2.Test.make ~count:(n 120)
    ~name:"random programs: cleanup passes preserve semantics"
    Gen_prog.gen_func
    (fun fn ->
      let base = run_with (fun f a -> Interp.run_func f a) fn in
      List.for_all
        (fun pass ->
          same base (run_with (fun f a -> Interp.run_func f a) (pass fn)))
        [ Ft_passes.Simplify.run; Ft_passes.Dead_code.run;
          Ft_passes.Make_reduction.run; Ft_passes.Sink_var.run;
          Ft_passes.Const_prop.run ])

let prop_auto_schedule_preserves =
  QCheck2.Test.make ~count:(n 60)
    ~name:"random programs: auto_schedule preserves semantics"
    Gen_prog.gen_func
    (fun fn ->
      let base = run_with (fun f a -> Interp.run_func f a) fn in
      List.for_all
        (fun device ->
          let fn' = Ft_auto.Auto.run ~device fn in
          same base (run_with (fun f a -> Interp.run_func f a) fn'))
        [ Types.Cpu; Types.Gpu ])

let prop_random_schedules_preserve =
  QCheck2.Test.make ~count:(n 60)
    ~name:"random programs: random schedule pipelines preserve semantics"
    QCheck2.Gen.(tup2 Gen_prog.gen_func (list_size (int_range 1 5) (int_range 0 5)))
    (fun (fn, ops) ->
      let module Schedule = Ft_sched.Schedule in
      let base = run_with (fun f a -> Interp.run_func f a) fn in
      let s = Schedule.of_func fn in
      let pick_loop k =
        let loops =
          Stmt.find_all
            (fun st ->
              match st.Stmt.node with Stmt.For _ -> true | _ -> false)
            (Schedule.body s)
        in
        match loops with
        | [] -> None
        | _ -> Some (List.nth loops (k mod List.length loops))
      in
      List.iteri
        (fun step op ->
          try
            match pick_loop (op + step) with
            | None -> ()
            | Some l -> (
              let sel = Schedule.By_id l.Stmt.sid in
              match op with
              | 0 -> ignore (Schedule.split s sel ~factor:((step mod 3) + 2))
              | 1 -> Schedule.parallelize s sel Types.Openmp
              | 2 -> Schedule.unroll s sel
              | 3 -> Schedule.vectorize s sel
              | 4 -> (
                match l.Stmt.node with
                | Stmt.For f -> (
                  match Ft_sched.Select.directly_nested_loop f with
                  | Some (inner, _) ->
                    Schedule.reorder s sel (Schedule.By_id inner.Stmt.sid)
                  | None -> ())
                | _ -> ())
              | _ -> Schedule.simplify s)
          with Ft_sched.Select.Invalid_schedule _ -> ())
        ops;
      same base
        (run_with (fun f a -> Interp.run_func f a) (Schedule.func s)))

let prop_codegen_never_crashes =
  QCheck2.Test.make ~count:(n 80)
    ~name:"random programs: both code generators produce output"
    Gen_prog.gen_func
    (fun fn ->
      let c = Ft_backend.Codegen.c_of_func fn in
      let cu =
        Ft_backend.Codegen.cuda_of_func (Ft_auto.Auto.run ~device:Types.Gpu fn)
      in
      String.length c > 0 && String.length cu > 0)

let prop_costmodel_total =
  QCheck2.Test.make ~count:(n 80)
    ~name:"random programs: cost model returns finite positive time"
    Gen_prog.gen_func
    (fun fn ->
      let m = Ft_backend.Costmodel.estimate ~device:Types.Cpu fn in
      Float.is_finite m.Ft_machine.Machine.time
      && m.Ft_machine.Machine.time >= 0.0)



let prop_costmodel_exact_static =
  (* on guard-free programs (static control flow) the analytic model's
     operation count and kernel segmentation are exact, matching the
     interpreter-observed counters to the last op *)
  QCheck2.Test.make ~count:(n 80)
    ~name:"random guard-free programs: cost model flops and kernels exact"
    Gen_prog.gen_func_no_guard
    (fun fn ->
      let p = Profile.create () in
      ignore (run_with (fun f a -> Interp.run_func ~profile:p f a) fn);
      let m = Ft_backend.Costmodel.estimate ~device:Types.Cpu fn in
      let obs_flops = Profile.flops (Profile.totals p) in
      let obs_kernels = List.length (Profile.kernels p) in
      if m.Ft_machine.Machine.kernels <> obs_kernels then
        QCheck2.Test.fail_reportf "kernels: model %d, observed %d"
          m.Ft_machine.Machine.kernels obs_kernels
      else if
        Float.abs (m.Ft_machine.Machine.flops -. float_of_int obs_flops) > 0.5
      then
        QCheck2.Test.fail_reportf "flops: model %g, observed %d"
          m.Ft_machine.Machine.flops obs_flops
      else true)

let prop_costmodel_flops_bounded =
  (* with guards the model prices the then-branch at full multiplicity
     and the else-branch at a quarter, so it may under-estimate by at
     most 4x per If level (max 3 nested) but never loses track of the
     work entirely; kernel segmentation stays exact *)
  QCheck2.Test.make ~count:(n 80)
    ~name:"random programs: cost model kernels exact, flops bounded below"
    Gen_prog.gen_func
    (fun fn ->
      let p = Profile.create () in
      ignore (run_with (fun f a -> Interp.run_func ~profile:p f a) fn);
      let m = Ft_backend.Costmodel.estimate ~device:Types.Cpu fn in
      let obs_flops = float_of_int (Profile.flops (Profile.totals p)) in
      let obs_kernels = List.length (Profile.kernels p) in
      if m.Ft_machine.Machine.kernels <> obs_kernels then
        QCheck2.Test.fail_reportf "kernels: model %d, observed %d"
          m.Ft_machine.Machine.kernels obs_kernels
      else if m.Ft_machine.Machine.flops < (obs_flops /. 64.0) -. 0.5 then
        QCheck2.Test.fail_reportf "flops: model %g < observed %g / 64"
          m.Ft_machine.Machine.flops obs_flops
      else true)

let prop_jvp_executes_consistently =
  (* forward-mode duals of random programs run identically on both
     backends, and with a zero direction the tangents are zero *)
  QCheck2.Test.make ~count:(n 80)
    ~name:"random programs: jvp duals agree across backends"
    Gen_prog.gen_func
    (fun fn ->
      let j = Ft_ad.Jvp.jvp fn in
      let dual_args base =
        base
        @ [ ("x.d", Tensor.zeros Types.F32 [| Gen_prog.n_x |]);
            ("m.d", Tensor.zeros Types.F32 [| Gen_prog.m_r; Gen_prog.m_c |]);
            ("y.d", Tensor.zeros Types.F32 [| Gen_prog.n_x |]);
            ("z.d", Tensor.zeros Types.F32 [| Gen_prog.m_r; Gen_prog.m_c |]) ]
      in
      let run runner =
        let args = dual_args (Gen_prog.fresh_args ()) in
        runner j args;
        ( List.assoc "y" args, List.assoc "z" args,
          List.assoc "y.d" args, List.assoc "z.d" args )
      in
      let y1, z1, dy1, dz1 = run (fun f a -> Interp.run_func f a) in
      let y2, z2, dy2, dz2 = run (fun f a -> Cexec.run_func f a) in
      (* primal outputs match the dual-free program *)
      let yb, zb = run_with (fun f a -> Interp.run_func f a) fn in
      Tensor.all_close ~tol:1e-4 y1 y2
      && Tensor.all_close ~tol:1e-4 z1 z2
      && Tensor.all_close ~tol:1e-4 y1 yb
      && Tensor.all_close ~tol:1e-4 z1 zb
      (* zero direction => zero tangent *)
      && Tensor.max_abs_diff dy1 (Tensor.zeros Types.F32 [| Gen_prog.n_x |])
         < 1e-6
      && Tensor.max_abs_diff dz1
           (Tensor.zeros Types.F32 [| Gen_prog.m_r; Gen_prog.m_c |])
         < 1e-6
      && Tensor.all_close ~tol:1e-5 dy1 dy2
      && Tensor.all_close ~tol:1e-5 dz1 dz2)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_interp_vs_compiled; prop_passes_preserve;
      prop_auto_schedule_preserves; prop_random_schedules_preserve;
      prop_codegen_never_crashes; prop_costmodel_total;
      prop_costmodel_exact_static;
      prop_costmodel_flops_bounded; prop_jvp_executes_consistently ]
