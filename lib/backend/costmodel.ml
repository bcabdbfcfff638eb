(** Analytic cost model: charges a FreeTensor program to the abstract
    machine ({!Ft_machine.Machine}).

    The program is decomposed into *kernels* — the top-level statements
    outside any loop (after auto-scheduling a fused FreeTensor program is
    typically a single kernel; an operator chain is many).  For each
    kernel the walker counts, symbolically scaled by loop trip counts:
    - FLOPs: arithmetic in stored/reduced values,
    - main-memory traffic: loads/stores to tensors whose mtype is DRAM
      ([Cpu_heap]/[Gpu_global]); on-chip tensors (stack, shared, local)
      are free at this level,
    - the footprint: total bytes of distinct DRAM tensors touched,
    - the bound parallelism (product of parallel-annotated extents) and
      whether an inner loop is vectorized.

    Kernel time then follows the roofline model of {!Ft_machine.Machine};
    DRAM traffic is the footprint when the working set fits in L2
    (compulsory misses only), degrading toward the raw access volume as
    it exceeds cache (exactly the effect Fig. 17 measures). *)

open Ft_ir
open Ft_machine

exception Unknown_extent

type tensor_entry = {
  te_dtype : Types.dtype;
  te_mtype : Types.mtype;
  te_shape : Expr.t list;
}

type ctx = {
  sp : Machine.spec;
  fn_name : string;                  (* for resource-limit diagnostics *)
  sizes : (string, float) Hashtbl.t; (* size params + iterator midpoints *)
  tensors : (string, tensor_entry) Hashtbl.t;
  unknown_extent : float;            (* fallback for data-dependent trips *)
}

let rec feval ctx (e : Expr.t) : float =
  match e with
  | Expr.Int_const n -> float_of_int n
  | Expr.Float_const f -> f
  | Expr.Bool_const b -> if b then 1.0 else 0.0
  | Expr.Var x -> (
    match Hashtbl.find_opt ctx.sizes x with
    | Some v -> v
    | None -> raise Unknown_extent)
  | Expr.Load _ -> raise Unknown_extent
  | Expr.Unop (Expr.Neg, a) -> -.feval ctx a
  | Expr.Unop (Expr.Abs, a) -> Float.abs (feval ctx a)
  | Expr.Unop (_, a) -> feval ctx a
  | Expr.Binop (op, a, b) -> (
    let x = feval ctx a and y = feval ctx b in
    match op with
    | Expr.Add -> x +. y
    | Expr.Sub -> x -. y
    | Expr.Mul -> x *. y
    | Expr.Div -> x /. y
    | Expr.Floor_div -> Float.of_int (Expr.ifloor_div (int_of_float x) (max 1 (int_of_float y)))
    | Expr.Mod -> Float.of_int (Expr.imod (int_of_float x) (max 1 (int_of_float y)))
    | Expr.Min -> Float.min x y
    | Expr.Max -> Float.max x y
    | Expr.Pow -> Float.pow x y
    | _ -> raise Unknown_extent)
  | Expr.Select (_, a, b) -> 0.5 *. (feval ctx a +. feval ctx b)
  | Expr.Cast (_, a) -> feval ctx a
  | Expr.Meta_ndim _ | Expr.Meta_shape _ -> raise Unknown_extent

let extent ctx e = try Float.max 0.0 (feval ctx e) with Unknown_extent -> ctx.unknown_extent

let tensor_bytes ctx name =
  match Hashtbl.find_opt ctx.tensors name with
  | None -> 0.0
  | Some te ->
    List.fold_left (fun acc e -> acc *. extent ctx e) 1.0 te.te_shape
    *. float_of_int (Types.dtype_size te.te_dtype)

let is_dram_tensor ctx name =
  match Hashtbl.find_opt ctx.tensors name with
  | Some { te_mtype = Types.Cpu_heap | Types.Gpu_global; _ } -> true
  | Some { te_mtype = Types.Cpu_stack; _ } ->
    (* a GPU has no CPU stack: scratch the auto_mem_type pass did not
       move to registers/shared ends up in global memory *)
    ctx.sp.Machine.sp_device = Types.Gpu
  | Some _ -> false
  | None -> false

let elem_bytes ctx name =
  match Hashtbl.find_opt ctx.tensors name with
  | Some te -> float_of_int (Types.dtype_size te.te_dtype)
  | None -> 4.0

(* per-kernel accumulation *)
type kacc = {
  mutable flops : float;
  mutable atomics : float;    (* atomic RMW updates (Reduce_to r_atomic) *)
  mutable mem_bytes : float;  (* dynamic DRAM-tensor access volume *)
  mutable parallel : float;   (* product of parallel extents *)
  mutable vectorized : bool;
  mutable footprint : (string, unit) Hashtbl.t Lazy.t;
  mutable is_lib : bool;
  mutable is_mk : bool;       (* contains a blockized Microkernel nest *)
  mutable threads : float;     (* product of Cuda_thread_* extents *)
  mutable shared_live : float; (* Gpu_shared bytes live at this point *)
  mutable shared_peak : float; (* peak of shared_live over the kernel *)
}

let count_expr_ops e =
  Expr.fold
    (fun n sub ->
      match sub with
      | Expr.Binop ((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Min
                    | Expr.Max | Expr.Pow), _, _) -> n + 1
      | Expr.Unop ((Expr.Abs | Expr.Sqrt | Expr.Exp | Expr.Ln | Expr.Sigmoid
                   | Expr.Tanh | Expr.Square | Expr.Neg | Expr.Floor_op
                   | Expr.Ceil_op), _) -> n + 1
      | Expr.Select _ -> n + 1
      | _ -> n)
    0 e

(* DRAM access volume (bytes) of an expression, executed [mult] times
   under [loop_stack] (innermost first, with trip counts).  A load that is
   invariant to the innermost enclosing loops is hoisted into a register
   by any real backend compiler, so it only pays for the iterations of the
   outermost loop whose iterator it actually uses. *)
let expr_mem ctx loop_stack mult e =
  Expr.fold
    (fun acc sub ->
      match sub with
      | Expr.Load { l_var; _ } when is_dram_tensor ctx l_var ->
        let fv = Expr.free_vars sub in
        let rec hoisted m = function
          | (it, n) :: rest when not (List.mem it fv) ->
            hoisted (m /. Float.max 1.0 n) rest
          | _ -> m
        in
        acc +. (hoisted mult loop_stack *. elem_bytes ctx l_var)
      | _ -> acc)
    0.0 e

let expr_touches ctx (fp : (string, unit) Hashtbl.t) e =
  Expr.iter
    (function
      | Expr.Load { l_var; _ } when is_dram_tensor ctx l_var ->
        Hashtbl.replace fp l_var ()
      | _ -> ())
    e

(* Accumulate one kernel's body. [mult] is the dynamic execution count;
   [stack] holds the enclosing in-kernel loops (innermost first) for the
   register-hoisting model of [expr_mem]. *)
let rec acc_stmt ctx (k : kacc) fp stack mult (s : Stmt.t) =
  match s.Stmt.node with
  | Stmt.Nop | Stmt.Call _ -> ()
  | Stmt.Eval e ->
    k.flops <- k.flops +. (mult *. float_of_int (count_expr_ops e));
    k.mem_bytes <- k.mem_bytes +. expr_mem ctx stack mult e;
    expr_touches ctx fp e
  | Stmt.Store { s_var; s_indices; s_value } ->
    (* address arithmetic counts: the executors evaluate the index
       expressions on every store, and the profiler observes them *)
    let ops =
      count_expr_ops s_value
      + List.fold_left (fun n e -> n + count_expr_ops e) 0 s_indices
    in
    k.flops <- k.flops +. (mult *. float_of_int ops);
    let mem =
      expr_mem ctx stack mult s_value
      +. List.fold_left (fun a e -> a +. expr_mem ctx stack mult e) 0.0
           s_indices
      +.
      if is_dram_tensor ctx s_var then mult *. elem_bytes ctx s_var else 0.0
    in
    k.mem_bytes <- k.mem_bytes +. mem;
    expr_touches ctx fp s_value;
    List.iter (expr_touches ctx fp) s_indices;
    if is_dram_tensor ctx s_var then Hashtbl.replace fp s_var ()
  | Stmt.Reduce_to { r_var; r_indices; r_value; r_atomic; _ } ->
    let ops =
      count_expr_ops r_value + 1
      + List.fold_left (fun n e -> n + count_expr_ops e) 0 r_indices
    in
    k.flops <- k.flops +. (mult *. float_of_int ops);
    if r_atomic then k.atomics <- k.atomics +. mult;
    let target_mem =
      (* the accumulator itself is register-promoted across inner loops
         its indices do not depend on *)
      if is_dram_tensor ctx r_var then
        2.0
        *. expr_mem ctx stack mult
             (Expr.Load { Expr.l_var = r_var; l_indices = r_indices })
        /. elem_bytes ctx r_var *. elem_bytes ctx r_var
      else 0.0
    in
    let mem =
      expr_mem ctx stack mult r_value
      +. List.fold_left (fun a e -> a +. expr_mem ctx stack mult e) 0.0
           r_indices
      +. target_mem
    in
    k.mem_bytes <- k.mem_bytes +. mem;
    expr_touches ctx fp r_value;
    List.iter (expr_touches ctx fp) r_indices;
    if is_dram_tensor ctx r_var then Hashtbl.replace fp r_var ()
  | Stmt.Var_def d ->
    Hashtbl.replace ctx.tensors d.Stmt.d_name
      { te_dtype = d.Stmt.d_dtype; te_mtype = d.Stmt.d_mtype;
        te_shape = d.Stmt.d_shape };
    let shared_sz =
      match d.Stmt.d_mtype with
      | Types.Gpu_shared -> tensor_bytes ctx d.Stmt.d_name
      | _ -> 0.0
    in
    k.shared_live <- k.shared_live +. shared_sz;
    k.shared_peak <- Float.max k.shared_peak k.shared_live;
    acc_stmt ctx k fp stack mult d.Stmt.d_body;
    k.shared_live <- k.shared_live -. shared_sz;
    Hashtbl.remove ctx.tensors d.Stmt.d_name
  | Stmt.For f ->
    let lo = try feval ctx f.Stmt.f_begin with Unknown_extent -> 0.0 in
    let n =
      try
        Float.max 0.0
          ((feval ctx f.Stmt.f_end -. lo) /. Float.max 1.0 (extent ctx f.Stmt.f_step))
      with Unknown_extent -> ctx.unknown_extent
    in
    if f.Stmt.f_property.parallel <> None then
      k.parallel <- k.parallel *. Float.max 1.0 n;
    (match f.Stmt.f_property.parallel with
     | Some p when Types.is_cuda_thread_scope p ->
       k.threads <- k.threads *. Float.max 1.0 n
     | _ -> ());
    if f.Stmt.f_property.vectorize then k.vectorized <- true;
    let saved = Hashtbl.find_opt ctx.sizes f.Stmt.f_iter in
    Hashtbl.replace ctx.sizes f.Stmt.f_iter (lo +. ((n -. 1.0) /. 2.0));
    acc_stmt ctx k fp ((f.Stmt.f_iter, n) :: stack) (mult *. n) f.Stmt.f_body;
    (match saved with
     | Some v -> Hashtbl.replace ctx.sizes f.Stmt.f_iter v
     | None -> Hashtbl.remove ctx.sizes f.Stmt.f_iter)
  | Stmt.If i ->
    (* the condition is evaluated on every visit regardless of outcome *)
    k.flops <- k.flops +. (mult *. float_of_int (count_expr_ops i.Stmt.i_cond));
    k.mem_bytes <- k.mem_bytes +. expr_mem ctx stack mult i.Stmt.i_cond;
    expr_touches ctx fp i.Stmt.i_cond;
    (* branch probability approximated as 1 for the hot path *)
    acc_stmt ctx k fp stack mult i.Stmt.i_then;
    Option.iter (acc_stmt ctx k fp stack (mult *. 0.25)) i.Stmt.i_else
  | Stmt.Assert_stmt (_, b) -> acc_stmt ctx k fp stack mult b
  | Stmt.Seq ss -> List.iter (acc_stmt ctx k fp stack mult) ss
  | Stmt.Lib_call { body; _ } ->
    k.is_lib <- true;
    acc_stmt ctx k fp stack mult body
  | Stmt.Microkernel { body; _ } ->
    k.is_mk <- true;
    acc_stmt ctx k fp stack mult body

(* Charge one kernel rooted at [s]. *)
let charge_kernel ctx (m : Machine.metrics) ~live (s : Stmt.t) =
  let fp = Hashtbl.create 8 in
  let k =
    { flops = 0.; atomics = 0.; mem_bytes = 0.; parallel = 1.0;
      vectorized = false; footprint = lazy fp; is_lib = false;
      is_mk = false; threads = 1.0; shared_live = 0.0; shared_peak = 0.0 }
  in
  acc_stmt ctx k fp [] 1.0 s;
  (* a kernel oversubscribing the device's per-block limits could not
     launch on the real hardware, so refuse to price it *)
  if ctx.sp.Machine.sp_device = Types.Gpu && not k.is_lib then
    Machine.validate_kernel ctx.sp ~sid:s.Stmt.sid ~fn:ctx.fn_name
      ~threads_per_block:(int_of_float (Float.min 1e9 k.threads))
      ~shared_bytes:k.shared_peak ();
  let footprint =
    Hashtbl.fold (fun name () acc -> acc +. tensor_bytes ctx name) fp 0.0
  in
  let parallel_iters, vectorized, l2 =
    if k.is_lib then
      (* vendor library: perfectly parallel and cache-blocked *)
      (ctx.sp.Machine.parallelism, true, footprint)
    else (int_of_float (Float.min 1e9 k.parallel), k.vectorized, k.mem_bytes)
  in
  (* blockized microkernel nests ([is_mk]) run register-tiled flat
     loops: [Machine.mk_lanes] of the SIMD width plus [mk_overhead]
     launch latency, but they keep the nest's own memory traffic — they
     are not cache-oblivious like a vendor BLAS *)
  Machine.charge_kernel ctx.sp ~atomic_rmws:k.atomics
    ~microkernel:(k.is_mk && not k.is_lib) m ~parallel_iters ~vectorized
    ~flops:k.flops ~l2_bytes:l2 ~footprint_bytes:footprint ~live_bytes:live

(** Estimate the metrics of running [fn] once on [device], along with a
    per-kernel breakdown [(sid of the kernel root statement, metrics)] in
    launch order — the same kernel segmentation the interpreter uses when
    profiling, so the breakdown lines up with
    {!Ft_profile.Profile.kernels} one-to-one.

    [sizes] binds symbolic size parameters; [unknown_extent] is assumed
    for loop trips the model cannot evaluate (data-dependent bounds such
    as CSR row degrees). *)
let estimate_kernels ?(sizes = []) ?(unknown_extent = 8.0)
    ~(device : Types.device) (fn : Stmt.func) :
    Machine.metrics * (int * Machine.metrics) list =
  let sp = Machine.of_device device in
  let ctx =
    { sp; fn_name = fn.Stmt.fn_name; sizes = Hashtbl.create 16;
      tensors = Hashtbl.create 16; unknown_extent }
  in
  List.iter (fun (n, v) -> Hashtbl.replace ctx.sizes n (float_of_int v)) sizes;
  List.iter
    (fun (p : Stmt.param) ->
      match p.Stmt.p_shape with
      | Stmt.Fixed es ->
        Hashtbl.replace ctx.tensors p.Stmt.p_name
          { te_dtype = p.Stmt.p_dtype;
            te_mtype =
              (match p.Stmt.p_mtype with
               | Types.By_value -> Types.By_value
               | _ -> Types.default_mtype device);
            te_shape = es }
      | Stmt.Any_dim -> ())
    fn.Stmt.fn_params;
  let m = Machine.fresh_metrics () in
  let per_kernel = ref [] in
  let base_live =
    List.fold_left
      (fun acc (p : Stmt.param) -> acc +. tensor_bytes ctx p.Stmt.p_name)
      0.0 fn.Stmt.fn_params
  in
  (* host-level walk: every top-level non-Var_def statement is a kernel *)
  let rec host live (s : Stmt.t) =
    match s.Stmt.node with
    | Stmt.Seq ss -> List.iter (host live) ss
    | Stmt.Var_def d ->
      Hashtbl.replace ctx.tensors d.Stmt.d_name
        { te_dtype = d.Stmt.d_dtype; te_mtype = d.Stmt.d_mtype;
          te_shape = d.Stmt.d_shape };
      let sz =
        match d.Stmt.d_mtype with
        | Types.Cpu_heap | Types.Gpu_global -> tensor_bytes ctx d.Stmt.d_name
        | _ -> 0.0
      in
      host (live +. sz) d.Stmt.d_body;
      Hashtbl.remove ctx.tensors d.Stmt.d_name
    | Stmt.Nop -> ()
    | _ ->
      let km = Machine.fresh_metrics () in
      charge_kernel ctx km ~live s;
      per_kernel := (s.Stmt.sid, km) :: !per_kernel;
      Machine.add_into ~into:m km
  in
  host base_live fn.Stmt.fn_body;
  (m, List.rev !per_kernel)

(** Total-only variant of {!estimate_kernels}. *)
let estimate ?sizes ?unknown_extent ~(device : Types.device)
    (fn : Stmt.func) : Machine.metrics =
  fst (estimate_kernels ?sizes ?unknown_extent ~device fn)
