(** Table and report rendering shared by the bench harness, the
    [ftc profile] subcommand and the golden-output tests.  Everything
    returns strings so `dune runtest` can pin the exact layout. *)

open Ft_ir
open Ft_runtime

(** Render one Fig. 16-style cell ([Time]/[OOM]/[ICE]/[-]). *)
val fmt_cell : Experiments.cell -> string

(** The Fig. 16 table layout: one row per (workload, device), one column
    per framework (the first column is FreeTensor), a speedup column
    against the best successful baseline and a geomean footer.  [cell_of]
    supplies the cells — the bench harness plugs in the real experiment,
    the golden test a deterministic stub. *)
val render_table :
  title:string ->
  frameworks:Experiments.framework list ->
  cell_of:
    (Types.device ->
     Experiments.workload ->
     Experiments.framework ->
     Experiments.cell) ->
  unit ->
  string

(** Fresh argument tensors for one execution of a workload (call the
    closure once per run; inputs are deterministic, outputs zeroed). *)
val workload_args :
  Experiments.scale ->
  Experiments.workload ->
  unit ->
  (string * Tensor.t) list

(** Auto-schedule the workload for [device], take the tree the compiled
    executor serves ([(Compile_exec.compile fn).cd_fn]: lowered, with
    microkernel nests, unless [FT_LOWER=0]), run it under the reference
    interpreter with observed-counter profiling, and render the
    hierarchical per-loop report and the predicted (cost-model) versus
    observed (profiler-replay) table. *)
val profile_workload :
  device:Types.device -> Experiments.scale -> Experiments.workload -> string
