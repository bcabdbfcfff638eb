(* The benchmark's program catalogue: the five paper programs at a given
   shape, with seeded inputs and the expected outputs every response is
   checked against.  Inference outputs are expected to match each
   workload's plain-OCaml [reference] (bitwise for tvmlike, within the
   repository tests' 1e-3 for the others); training outputs are expected
   to match [Interp.run_func] of the same forward and backward programs,
   computed once here, during set-up. *)

open Ft_ir
open Ft_runtime
module Interp = Ft_backend.Interp
module Grad = Ft_ad.Grad
module Sub = Ft_workloads.Subdivnet
module Lf = Ft_workloads.Longformer
module Sr = Ft_workloads.Softras
module Gat = Ft_workloads.Gat
module Tvm = Ft_workloads.Tvmlike

type shape =
  | Subdivnet of Sub.config
  | Longformer of Lf.config
  | Softras of Sr.config
  | Gat of Gat.config
  | Tvmlike of Tvm.mm_config

let family = function
  | Subdivnet _ -> "subdivnet"
  | Longformer _ -> "longformer"
  | Softras _ -> "softras"
  | Gat _ -> "gat"
  | Tvmlike _ -> "tvmlike"

let families = [ "subdivnet"; "longformer"; "softras"; "gat"; "tvmlike" ]

let shape_to_string = function
  | Subdivnet c -> Printf.sprintf "subdivnet(%d,%d)" c.Sub.n_faces c.Sub.in_feats
  | Longformer c ->
    Printf.sprintf "longformer(%d,%d,%d)" c.Lf.seq_len c.Lf.feat_len c.Lf.w
  | Softras c -> Printf.sprintf "softras(%d,%d)" c.Sr.img c.Sr.n_faces
  | Gat c ->
    Printf.sprintf "gat(%d,%d,%d,%d)" c.Gat.n_nodes c.Gat.in_feats
      c.Gat.out_feats c.Gat.avg_degree
  | Tvmlike c ->
    Printf.sprintf "tvmlike(%d,%d,%d)" c.Tvm.mm_m c.Tvm.mm_n c.Tvm.mm_k

(* The ftc default sizes: infer-hot runs exactly these. *)
let defaults =
  [ Subdivnet Sub.default; Longformer Lf.default; Softras Sr.default;
    Gat Gat.default; Tvmlike Tvm.mm_default ]

(* One runnable program instance.  [args] binds every parameter; the
   program writes the tensors named in [expect], which hold the values a
   correct run must produce.  [prepare] resets the instance's arguments
   before each request, outside the timed interval: written tensors are
   filled with NaN, so a run that skips an element cannot pass on a
   previous run's value, and [Inout] seeds are restored. *)
type inst = {
  name : string;
  build : unit -> Stmt.func;  (** the frontend: the free-form program *)
  args : (string * Tensor.t) list;
  expect : (string * Tensor.t) list;
  tol : float;  (** absolute tolerance, scaled by [max 1 |expected|]; 0 = bitwise *)
  prepare : unit -> unit;
}

let nan_fill ts () = List.iter (fun t -> Tensor.fill_f t Float.nan) ts

(* An inference instance of [shape] under input seed [seed]: plain
   reference computed here.  [corrupt] perturbs one expected element, so
   the self-test can show a wrong output is caught. *)
let infer ?(corrupt = false) ~seed shape : inst =
  let name = family shape in
  let build, args, out, expected, tol =
    match shape with
    | Subdivnet c ->
      let e, adj = Sub.gen_inputs ~seed c in
      let y = Tensor.zeros Types.F32 [| c.Sub.n_faces; c.Sub.in_feats |] in
      ( (fun () -> Sub.ft_func c), [ ("e", e); ("adj", adj); ("y", y) ],
        ("y", y), Sub.reference e adj, 1e-3 )
    | Longformer c ->
      let q, k, v = Lf.gen_inputs ~seed c in
      let y = Tensor.zeros Types.F32 [| c.Lf.seq_len; c.Lf.feat_len |] in
      ( (fun () -> Lf.ft_func c),
        [ ("Q", q); ("K", k); ("V", v); ("Y", y) ],
        ("Y", y), Lf.reference q k v ~w:c.Lf.w, 1e-3 )
    | Softras c ->
      let cx, cy, r = Sr.gen_inputs ~seed c in
      let img = Tensor.zeros Types.F32 [| c.Sr.img; c.Sr.img |] in
      ( (fun () -> Sr.ft_func c),
        [ ("cx", cx); ("cy", cy); ("r", r); ("img", img) ],
        ("img", img),
        Sr.reference cx cy r ~img:c.Sr.img ~sigma:c.Sr.sigma, 1e-3 )
    | Gat c ->
      let rowptr, colidx, n_edges = Gat.gen_graph ~seed c in
      let x, w, a1, a2 = Gat.gen_inputs ~seed c in
      let out = Tensor.zeros Types.F32 [| c.Gat.n_nodes; c.Gat.out_feats |] in
      ( (fun () -> Gat.ft_func c ~n_edges),
        [ ("x", x); ("w", w); ("a1", a1); ("a2", a2); ("rowptr", rowptr);
          ("colidx", colidx); ("out", out) ],
        ("out", out), Gat.reference x w a1 a2 rowptr colidx, 1e-3 )
    | Tvmlike c ->
      (* [mm_inputs] has a fixed seed; draw from the benchmark's seed. *)
      let a = Tensor.rand ~seed Types.F32 [| c.Tvm.mm_m; c.Tvm.mm_k |] in
      let b = Tensor.rand ~seed:(seed + 1) Types.F32 [| c.Tvm.mm_k; c.Tvm.mm_n |] in
      let cc = Tensor.zeros Types.F32 [| c.Tvm.mm_m; c.Tvm.mm_n |] in
      ( (fun () -> Tvm.mm_func c), [ ("A", a); ("B", b); ("C", cc) ],
        ("C", cc), Tvm.mm_reference a b, 0.0 )
  in
  if corrupt then
    Tensor.set_flat_f expected 0 (Tensor.get_flat_f expected 0 +. 1.0);
  { name; build; args; expect = [ (fst out, expected) ]; tol;
    prepare = nan_fill [ snd out ] }

(* Does every expected tensor of [i] hold its expected value? *)
let correct (i : inst) =
  List.for_all
    (fun (n, e) ->
      let got = List.assoc n i.args in
      let ok = ref true in
      for k = 0 to Tensor.numel e - 1 do
        let x = Tensor.get_flat_f got k and y = Tensor.get_flat_f e k in
        let close =
          if i.tol = 0.0 then Int64.bits_of_float x = Int64.bits_of_float y
          else x = y || Float.abs (x -. y) <= i.tol *. Float.max 1.0 (Float.abs y)
        in
        if not close then ok := false
      done;
      !ok)
    i.expect

(* {1 Training} *)

(* A training instance: the [Grad.Selective] forward (original outputs
   plus tapes) and backward of one program.  [fwd.expect] holds the
   forward's outputs and tapes, [bwd.expect] the input gradients, all
   from the interpreter running the unscheduled gradient programs. *)
type train = {
  fwd : inst;
  bwd : inst;
  tape_bytes : int;
  recomputed : int;
}

let written (fn : Stmt.func) =
  List.filter_map
    (fun (p : Stmt.param) ->
      if p.Stmt.p_atype = Types.Output then Some p.Stmt.p_name else None)
    fn.Stmt.fn_params

let bind (fn : Stmt.func) args =
  List.map
    (fun (p : Stmt.param) -> (p.Stmt.p_name, List.assoc p.Stmt.p_name args))
    fn.Stmt.fn_params

let train ?(corrupt = false) ~seed shape : train =
  let base = infer ~seed shape in
  (* Differentiated once: AD names tapes from global fresh-name counters,
     so a second [Grad.grad] would not match the bound arguments.  The
     instances' [build] returns these programs. *)
  let g = Grad.grad ~mode:Grad.Selective (base.build ()) in
  let inputs =
    List.filter (fun (n, _) -> not (List.mem_assoc n base.expect)) base.args
  in
  (* Every parameter of either program that is not an input: outputs,
     tapes and gradients, zero-filled; output-gradient seeds ([Inout])
     drawn from the seed and restored before every backward request. *)
  let seeds = ref [] in
  let all_args =
    List.fold_left
      (fun acc (p : Stmt.param) ->
        if List.mem_assoc p.Stmt.p_name acc then acc
        else
          let t = Tensor.zeros p.Stmt.p_dtype (Interp.param_dims p) in
          if p.Stmt.p_atype = Types.Inout then begin
            let s =
              Tensor.rand ~seed:(seed + 7) ~lo:0.5 ~hi:1.5 p.Stmt.p_dtype
                (Tensor.shape t)
            in
            Tensor.copy_into ~src:s ~dst:t;
            seeds := (s, t) :: !seeds
          end;
          acc @ [ (p.Stmt.p_name, t) ])
      inputs
      (g.Grad.forward.Stmt.fn_params @ g.Grad.backward.Stmt.fn_params)
  in
  let ref_args = List.map (fun (n, t) -> (n, Tensor.copy t)) all_args in
  Interp.run_func g.Grad.forward (bind g.Grad.forward ref_args);
  Interp.run_func g.Grad.backward (bind g.Grad.backward ref_args);
  let expect fn = List.map (fun n -> (n, List.assoc n ref_args)) (written fn) in
  let fwd_expect = expect g.Grad.forward
  and bwd_expect = expect g.Grad.backward in
  if corrupt then begin
    let e = snd (List.hd bwd_expect) in
    Tensor.set_flat_f e 0 (Tensor.get_flat_f e 0 +. 1.0)
  end;
  let fill fn = nan_fill (List.map (fun n -> List.assoc n all_args) (written fn)) in
  { fwd =
      { name = base.name ^ ".fwd";
        build = (fun () -> g.Grad.forward);
        args = bind g.Grad.forward all_args; expect = fwd_expect; tol = 1e-3;
        prepare = fill g.Grad.forward };
    bwd =
      { name = base.name ^ ".bwd";
        build = (fun () -> g.Grad.backward);
        args = bind g.Grad.backward all_args; expect = bwd_expect; tol = 1e-3;
        prepare =
          (fun () ->
            fill g.Grad.backward ();
            List.iter (fun (s, t) -> Tensor.copy_into ~src:s ~dst:t) !seeds) };
    tape_bytes =
      List.fold_left
        (fun a (tp : Grad.tape_spec) ->
          a + Tensor.byte_size (List.assoc tp.Grad.tp_name all_args))
        0 g.Grad.tapes;
    recomputed = List.length g.Grad.recomputed }
