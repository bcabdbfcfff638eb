(** Table and report rendering shared by the bench harness, the
    [ftc profile] subcommand and the golden-output tests.

    Keeping the rendering here (returning strings rather than printing)
    lets `dune runtest` pin the exact table layout: a golden test feeds
    {!render_table} a deterministic stub cell function and compares
    against a checked-in expectation, so accidental format drift in the
    paper-figure tables fails the suite. *)

open Ft_ir
open Ft_runtime
module Machine = Ft_machine.Machine
module Profile = Ft_profile.Profile
module Interp = Ft_backend.Interp
module Compile_exec = Ft_backend.Compile_exec
module Costmodel = Ft_backend.Costmodel
module Auto = Ft_auto.Auto

let fmt_cell = function
  | Experiments.Time m -> Machine.time_to_string m.Machine.time
  | Experiments.Oom _ -> "OOM"
  | Experiments.Ice _ -> "ICE"
  | Experiments.Not_reported -> "-"

let render_table ~title ~frameworks
    ~(cell_of :
       Types.device ->
       Experiments.workload ->
       Experiments.framework ->
       Experiments.cell) () : string =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "\n== %s ==\n" title;
  pr "%-12s %-4s" "workload" "dev";
  List.iter (fun f -> pr " %14s" (Experiments.framework_name f)) frameworks;
  pr " %10s\n" "FT speedup";
  let speedups = ref [] in
  List.iter
    (fun w ->
      List.iter
        (fun device ->
          pr "%-12s %-4s" (Experiments.workload_name w)
            (Types.device_to_string device);
          let cells = List.map (cell_of device w) frameworks in
          List.iter (fun c -> pr " %14s" (fmt_cell c)) cells;
          (* FT speedup over the best successful baseline *)
          let ft_time =
            match cells with
            | c :: _ -> Experiments.cell_time c
            | [] -> None
          in
          let best_baseline =
            List.filteri (fun k _ -> k > 0) cells
            |> List.filter_map Experiments.cell_time
            |> List.fold_left Float.min infinity
          in
          (match ft_time with
           | Some t when best_baseline < infinity ->
             let s = best_baseline /. t in
             speedups := s :: !speedups;
             pr " %9.2fx" s
           | _ -> pr " %10s" "-");
          pr "\n")
        [ Types.Cpu; Types.Gpu ])
    Experiments.all_workloads;
  (match !speedups with
   | [] -> ()
   | ss ->
     let n = float_of_int (List.length ss) in
     let geo = exp (List.fold_left (fun a s -> a +. log s) 0.0 ss /. n) in
     let mx = List.fold_left Float.max 0.0 ss in
     pr "FreeTensor speedup over best baseline: %.2fx geomean, %.2fx max\n"
       geo mx);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Profiling the paper workloads *)

(* Fresh argument tensors for one execution.  Input generation is
   deterministic (fixed seeds), so two executions see identical data and
   data-dependent control flow, while output tensors start from zeros
   each time. *)
let workload_args (scale : Experiments.scale) (w : Experiments.workload) () :
    (string * Tensor.t) list =
  match w with
  | Experiments.Subdiv ->
    let c = scale.Experiments.sub in
    let e, adj = Subdivnet.gen_inputs c in
    let y =
      Tensor.zeros Types.F32 [| c.Subdivnet.n_faces; c.Subdivnet.in_feats |]
    in
    [ ("e", e); ("adj", adj); ("y", y) ]
  | Experiments.Longf ->
    let c = scale.Experiments.lf in
    let q, k, v = Longformer.gen_inputs c in
    let y =
      Tensor.zeros Types.F32 [| c.Longformer.seq_len; c.Longformer.feat_len |]
    in
    [ ("Q", q); ("K", k); ("V", v); ("Y", y) ]
  | Experiments.Softr ->
    let c = scale.Experiments.sr in
    let cx, cy, r = Softras.gen_inputs c in
    let img = Tensor.zeros Types.F32 [| c.Softras.img; c.Softras.img |] in
    [ ("cx", cx); ("cy", cy); ("r", r); ("img", img) ]
  | Experiments.Gatw ->
    let c = scale.Experiments.gat in
    let rowptr, colidx, _ = Gat.gen_graph c in
    let x, wt, a1, a2 = Gat.gen_inputs c in
    let out = Tensor.zeros Types.F32 [| c.Gat.n_nodes; c.Gat.out_feats |] in
    [ ("x", x); ("w", wt); ("a1", a1); ("a2", a2);
      ("rowptr", rowptr); ("colidx", colidx); ("out", out) ]

let profile_workload ~(device : Types.device) (scale : Experiments.scale)
    (w : Experiments.workload) : string =
  (* profile the tree the compiled executor serves: after the same
     lowering decision ([FT_LOWER]), so microkernel nests show up *)
  let fn =
    (Compile_exec.compile
       (Auto.run ~device (Experiments.ft_forward_func scale w)))
      .Compile_exec.cd_fn
  in
  let pi = Profile.create () in
  Interp.run_func ~profile:pi fn (workload_args scale w ());
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "==== profile: %s on %s ====\n"
    (Experiments.workload_name w)
    (Types.device_to_string device);
  pr "\n%s" (Profile.report fn pi);
  let unknown_extent =
    match w with
    | Experiments.Gatw -> Some (Experiments.gat_unknown_extent scale)
    | _ -> None
  in
  let spec = Machine.of_device device in
  (try
     let predicted, per_kernel =
       Costmodel.estimate_kernels ?unknown_extent ~device fn
     in
     pr "\n-- predicted (cost model) vs observed (profiler replay) --\n%s"
       (Profile.vs_table ~spec ~predicted ~per_kernel pi)
   with Machine.Out_of_memory { needed; capacity } ->
     pr "\ncost model: OOM (needs %s > %s)\n" (Machine.si needed)
       (Machine.si capacity));
  Buffer.contents buf
