(** Closure-compiling executor: the fast in-process backend.

    Where {!Interp} walks the AST on every execution, this backend
    *compiles* a function once into a tree of OCaml closures — names are
    resolved lexically to mutable cells at compile time, dtypes are
    settled statically, and float expressions fuse into one closure per
    operator node specialized on its operands' kinds (see "Fused
    operands" below) — and then runs the closures.  It plays the role
    nvcc/gcc play in the paper's pipeline for this repository's
    in-process execution, and the test suite cross-checks it against the
    reference interpreter on every workload.

    There are two closure paths: the plain (fused) path and the guarded
    path ([~guard:true]).  The guarded path keeps plain [unit -> float]
    expression thunks; the plain path is fused, and in steady state it
    allocates nothing per element.  Neither counts anything: {!Interp}
    is the one profiler, and it observes the served code by running on
    [cd_fn], the tree compiled here.

    Two execution-speed layers on top of the plain closure walk:

    - {b Compile-time access optimization.}  When a tensor's shape is
      known at compile time its strides are constants, constant index
      components fold away, and affine indices compile to a handful of
      register reads — or, when an index is affine in an enclosing
      loop's iterator, to a strength-reduced running offset that the
      loop advances by [stride * step] per trip instead of re-evaluating
      the full dot product.  The affine analysis lives in
      {!Ft_lower.Address} and is shared by both paths.

    Before closure compilation, unguarded functions run through the
    {!Ft_lower.Pass} pipeline (normalize, hoist, blockize); [Microkernel]
    nests the pipeline marked compile to hand-written flat kernels from
    {!Kernels} when nothing needs the scalar body's per-access effects.

    - {b Domain-pool parallel loops.}  With [~parallel:true], loops
      annotated [Openmp] / [Cuda_block_*] by the scheduler execute their
      iteration chunks on the {!Exec_par} domain pool.  Each worker runs
      a private compiled instance of the loop body (own iterator cell,
      own locals, own event log), so workers share no mutable executor
      state.  Reductions into tensors defined outside the loop are
      logged as [(site, offset, value)] events and replayed by the
      master in chunk order after the join — exactly the sequential
      iteration order — so results are bitwise-identical to sequential
      execution and to any other pool size.  Loops whose body reads or
      stores a reduced tensor fall back to sequential execution.

    A compiled artifact holds per-run mutable state — parameter cells,
    fused slots, recycled [Var_def] buffers — so one artifact must never
    run two calls at once.  The serving layer guarantees it by keeping
    same-key requests sequential; parallel loops compile one private
    body instance per worker. *)

open Ft_ir
open Ft_runtime
module Race = Ft_analyze.Race
module Boundcheck = Ft_analyze.Boundcheck
module Address = Ft_lower.Address
module Blockize = Ft_lower.Blockize

exception Exec_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

(* Where demotion notices go ([`Fallback] policy): one line per parallel
   loop compiled sequentially, with the reason.  Tests redirect it. *)
let race_logger : (string -> unit) ref = ref prerr_endline

(* a tensor binding; filled at run time (params) or on scope entry.  The
   raw buffers are cached on binding so fused closures index them
   directly ([[||]] for the buffer kind the tensor does not have). *)
type cell = {
  mutable t : Tensor.t option;
  mutable fa : float array;
  mutable ia : int array;
}

let new_cell () = { t = None; fa = [||]; ia = [||] }

(* [bound] is [Some t], passed in so recycled buffers rebind without
   allocating a fresh option *)
let bind c bound =
  c.t <- bound;
  match bound with
  | Some t ->
    c.fa <- Tensor.float_buf t;
    c.ia <- Tensor.int_buf t
  | None ->
    c.fa <- [||];
    c.ia <- [||]

let cell_tensor name c =
  match c.t with
  | Some t -> t
  | None -> err "tensor %s is not live here (not a parameter or enclosing Var_def)" name

(* ------------------------------------------------------------------ *)
(* Parallel-region support types *)

(* Deferred-reduction event log: one per body instance, entries appended
   in execution order and replayed by the master in chunk order, which
   reconstructs the exact sequential iteration order. *)
type rlog = {
  mutable lg_site : int array;
  mutable lg_off : int array;
  mutable lg_val : float array;
  mutable lg_len : int;
}

let make_rlog () =
  { lg_site = Array.make 64 0; lg_off = Array.make 64 0;
    lg_val = Array.make 64 0.0; lg_len = 0 }

let log_grow lg =
  let n = lg.lg_len in
  let grow a z =
    let b = Array.make (2 * n) z in
    Array.blit a 0 b 0 n;
    b
  in
  lg.lg_site <- grow lg.lg_site 0;
  lg.lg_off <- grow lg.lg_off 0;
  lg.lg_val <- grow lg.lg_val 0.0

(* inlined so the logged value is never boxed *)
let[@inline] log_push lg site off v =
  let n = lg.lg_len in
  if n = Array.length lg.lg_site then log_grow lg;
  lg.lg_site.(n) <- site;
  lg.lg_off.(n) <- off;
  lg.lg_val.(n) <- v;
  lg.lg_len <- n + 1

(* the reduce combine, matched inline (a [float -> float -> float]
   closure would box its operands and result) *)
let[@inline] combine op acc v =
  match op with
  | Types.R_add -> acc +. v
  | Types.R_mul -> acc *. v
  | Types.R_min -> Float.min acc v
  | Types.R_max -> Float.max acc v

(* one deferred-reduction site (shared across body instances: the target
   cell is defined outside the region, so it is the same for all) *)
type rsite = {
  rs_name : string;
  rs_cell : cell;
  rs_op : Types.reduce_op;
}

(* compile-time state of the parallel region instance being compiled *)
type region = {
  rg_locals : (string, unit) Hashtbl.t; (* names Var_def-bound inside *)
  rg_sites : rsite list ref;            (* reversed; built by instance 0 *)
  rg_first : bool;
  mutable rg_next : int;                (* site ids, identical walk order *)
  rg_log : rlog;                        (* this instance's event log *)
}

(* ------------------------------------------------------------------ *)
(* Strength reduction *)

(* A running flat offset attached to the innermost enclosing loop whose
   iterator appears in the (affine, static-stride) offset form: the loop
   evaluates [tk_base] once on entry and adds [tk_coeff * step] per
   trip; the access just reads the cell. *)
type tracker = {
  tk_cell : int ref;
  tk_base : unit -> int;
  tk_coeff : int;
}

type open_loop = {
  ol_ref : int ref;
  mutable ol_trackers : tracker list;
}

(* ------------------------------------------------------------------ *)
(* Guarded execution *)

(* Filled at compile time (sites/checked/elided) and at run time
   (checks); [ftc guard] prints them and the tests assert that fully
   proved programs execute zero runtime bounds checks. *)
type guard_stats = {
  mutable gs_sites : int;   (* access sites compiled *)
  mutable gs_checked : int; (* sites carrying a runtime bounds check *)
  mutable gs_elided : int;  (* statically proved sites, check elided *)
  mutable gs_checks : int;
      (* runtime bounds checks executed; written by the master only —
         parallel workers count privately and the join adds their sums *)
}

(* [gs_checks] accumulates across every run of one compiled artifact,
   which is the right lifetime total but meaningless per request once
   artifacts are cached and reused.  The snapshot/delta pair reads a
   consistent per-interval count without resetting the counter (resets
   would race concurrent readers and lose the lifetime total). *)
type guard_snapshot = int

let guard_snapshot (g : guard_stats) : guard_snapshot = g.gs_checks
let guard_checks_since (g : guard_stats) (s : guard_snapshot) =
  g.gs_checks - s

(* Compile-time guard state.  [gc_iters] and [gc_stmt] track the
   enclosing loops / statement of the access being compiled, so every
   emitted check closure captures its provenance for the diagnostic.
   Shadow bitmaps are registered lexically like cells; the Bytes ref is
   (re)filled on each Var_def scope entry. *)
type gstate = {
  gc_fn : string;
  gc_proved : (string, unit) Hashtbl.t; (* Boundcheck.site_key set *)
  gc_shadows : (string, Bytes.t ref) Hashtbl.t;
  mutable gc_iters : (string * int ref) list; (* innermost first *)
  mutable gc_stmt : Stmt.t option;
  gc_stats : guard_stats;
  mutable gc_counter : int ref option;
      (* the private check counter of the parallel body instance being
         compiled; [None] at master level (count into [gc_stats]) *)
}

(* Decode a flat offset back to a multi-index for diagnostics on the
   elided fast path (which never materializes the index vector). *)
let index_of_offset t o =
  let strides = Tensor.strides t in
  let n = Array.length strides in
  let idx = Array.make n 0 in
  let rem = ref o in
  for k = 0 to n - 1 do
    if strides.(k) > 0 then begin
      idx.(k) <- !rem / strides.(k);
      rem := !rem mod strides.(k)
    end
  done;
  idx

(* Capture provenance at compile time; iterator values are read through
   the refs when (if) the fault fires. *)
let guard_provenance g =
  let sid =
    match g.gc_stmt with
    | Some s -> Some s.Stmt.sid
    | None -> None
  in
  let ctx =
    match g.gc_stmt with
    | Some s -> Diag.context_of_stmt s
    | None -> ""
  in
  let spec = g.gc_iters in
  let iters () = List.rev_map (fun (n, r) -> (n, !r)) spec in
  (sid, ctx, iters)

let bc_kind = function
  | Diag.Acc_load -> Boundcheck.K_load
  | Diag.Acc_store -> Boundcheck.K_store
  | Diag.Acc_reduce -> Boundcheck.K_reduce

(* Uninit-read checker for a tensor with a registered shadow bitmap
   ([None] for parameters: the caller initializes those). *)
let guard_uninit_check g name (c : cell) =
  match Hashtbl.find_opt g.gc_shadows name with
  | None -> None
  | Some bref ->
    let sid, ctx, iters = guard_provenance g in
    Some
      (fun o idx_opt ->
        let sh = !bref in
        if o >= 0 && o < Bytes.length sh && Bytes.get sh o = '\000' then begin
          let t = cell_tensor name c in
          let idx =
            match idx_opt with
            | Some a -> a
            | None -> index_of_offset t o
          in
          raise
            (Diag.Diag_error
               (Diag.uninit ~fn:g.gc_fn ?sid ~context:ctx ~iters:(iters ())
                  ~tensor:name ~dtype:(Tensor.dtype t)
                  ~shape:(Tensor.shape t) ~index:idx ()))
        end)

let guard_mark_shadow g name =
  match Hashtbl.find_opt g.gc_shadows name with
  | None -> None
  | Some bref ->
    Some
      (fun o ->
        let sh = !bref in
        if o >= 0 && o < Bytes.length sh then Bytes.set sh o '\001')

let guard_nonfinite g ~access name =
  let sid, ctx, iters = guard_provenance g in
  fun idx v ->
    raise
      (Diag.Diag_error
         (Diag.nonfinite ~fn:g.gc_fn ?sid ~context:ctx ~iters:(iters ())
            ~access ~tensor:name ~index:idx ~value:v ()))

(* ------------------------------------------------------------------ *)
(* Compile environment *)

type cenv = {
  cells : (string, cell) Hashtbl.t;   (* lexical: Hashtbl.add/remove *)
  orphans : (string, cell) Hashtbl.t; (* undeclared names; see find_cell *)
  ints : (string, int ref) Hashtbl.t; (* lexical loop iterators *)
  gints : (string, int ref) Hashtbl.t; (* free ints: size parameters *)
  dtypes : (string, Types.dtype) Hashtbl.t;
  shapes : (string, int array) Hashtbl.t; (* compile-time-static only *)
  par : bool;                    (* honor parallel annotations *)
  verdicts : (int, Race.verdict) Hashtbl.t;
      (* static race verdict per annotated For sid (parallel mode only) *)
  mutable in_par : bool;         (* compiling inside a region instance *)
  mutable region : region option;
  mutable loops : open_loop list; (* open loops, innermost first *)
  guard : gstate option; (* [None]: the fused-operand path *)
  sup : bool; (* emit supervisor hooks (kernel boundaries, poll points) *)
  mutable sup_host : bool;
      (* compiling at host (kernel-boundary) level: the next non-Seq,
         non-Var_def statement is a kernel root *)
  mutable sup_poll : bool;
      (* the next For is a kernel root: emit a per-iteration poll of the
         supervisor token in that outermost loop only *)
}

(* Names are resolved lexically: parameters and Var_defs are the only
   binders, so an unknown name here is not declared anywhere enclosing.
   Such references legitimately occur in branches that never execute
   (compiler-introduced code); they get a cell that is never filled, so
   the access raises an {!Exec_error} if it is ever actually executed. *)
let find_cell env name =
  match Hashtbl.find_opt env.cells name with
  | Some c -> c
  | None -> (
    match Hashtbl.find_opt env.orphans name with
    | Some c -> c
    | None ->
      let c = new_cell () in
      Hashtbl.replace env.orphans name c;
      c)

let find_int env name =
  match Hashtbl.find_opt env.ints name with
  | Some r -> r
  | None -> (
    match Hashtbl.find_opt env.gints name with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.replace env.gints name r;
      r)

let dtype_of env name =
  match Hashtbl.find_opt env.dtypes name with
  | Some dt -> dt
  | None -> Types.F32 (* orphan (unexecuted-branch) names only *)

(* ------------------------------------------------------------------ *)
(* Compile-time shape/index arithmetic *)

(* Shared with the interpreter's entry checks so both executors agree on
   what is a "compile-time-static" dimension. *)
let static_int = Expr.static_int

let static_shape (dims : Expr.t list) : int array option =
  let sdims = List.map static_int dims in
  if List.for_all Option.is_some sdims then
    Some (Array.of_list (List.map Option.get sdims))
  else None

let static_strides = Address.static_strides

(* a thunk for [cst + Σ coeff * !ref] *)
let emit_affine (terms : (int ref * int) list) cst : unit -> int =
  match terms with
  | [] -> fun () -> cst
  | [ (r, a) ] ->
    if a = 1 && cst = 0 then fun () -> !r
    else if a = 1 then fun () -> !r + cst
    else fun () -> (a * !r) + cst
  | [ (r1, a1); (r2, a2) ] -> fun () -> (a1 * !r1) + (a2 * !r2) + cst
  | _ ->
    let rs = Array.of_list (List.map fst terms) in
    let cs = Array.of_list (List.map snd terms) in
    fun () ->
      let off = ref cst in
      for k = 0 to Array.length rs - 1 do
        off := !off + (cs.(k) * !(rs.(k)))
      done;
      !off

(* flat offset of an index list against a cell's current tensor; the
   generic path for dynamically-shaped tensors *)
let offset_thunk name (c : cell) (idx : (unit -> int) list) : unit -> int =
  match idx with
  | [] -> fun () -> 0
  | [ i0 ] ->
    fun () ->
      let t = cell_tensor name c in
      i0 () * (Tensor.strides t).(0)
  | _ ->
    let idx = Array.of_list idx in
    fun () ->
      let t = cell_tensor name c in
      let strides = Tensor.strides t in
      let off = ref 0 in
      for k = 0 to Array.length idx - 1 do
        off := !off + (idx.(k) () * strides.(k))
      done;
      !off

(* ------------------------------------------------------------------ *)
(* Parallel-loop legality *)

(* A loop body is eligible for deferred-reduction parallel execution iff
   no tensor reduced into from outside the region is also loaded or
   stored in the body (deferral would reorder those accesses).  The scan
   is scope-aware: names Var_def-bound inside the body are private per
   worker and don't constrain anything. *)
let par_legal (body : Stmt.t) =
  let locals = Hashtbl.create 8 in
  let reduced = Hashtbl.create 4 in
  let loaded = Hashtbl.create 16 in
  let stored = Hashtbl.create 8 in
  let note tbl n = if not (Hashtbl.mem locals n) then Hashtbl.replace tbl n () in
  let scan_expr e =
    Expr.iter
      (function Expr.Load { l_var; _ } -> note loaded l_var | _ -> ())
      e
  in
  let ok = ref true in
  let rec scan (s : Stmt.t) =
    match s.Stmt.node with
    | Stmt.Store { s_var; s_indices; s_value } ->
      note stored s_var;
      List.iter scan_expr s_indices;
      scan_expr s_value
    | Stmt.Reduce_to { r_var; r_indices; r_value; _ } ->
      note reduced r_var;
      List.iter scan_expr r_indices;
      scan_expr r_value
    | Stmt.Var_def d ->
      List.iter scan_expr d.Stmt.d_shape;
      Hashtbl.add locals d.Stmt.d_name ();
      scan d.Stmt.d_body;
      Hashtbl.remove locals d.Stmt.d_name
    | Stmt.For f ->
      scan_expr f.Stmt.f_begin;
      scan_expr f.Stmt.f_end;
      scan_expr f.Stmt.f_step;
      scan f.Stmt.f_body
    | Stmt.If i ->
      scan_expr i.Stmt.i_cond;
      scan i.Stmt.i_then;
      (match i.Stmt.i_else with Some e -> scan e | None -> ())
    | Stmt.Assert_stmt (c, b) ->
      scan_expr c;
      scan b
    | Stmt.Seq ss -> List.iter scan ss
    | Stmt.Eval e -> scan_expr e
    | Stmt.Lib_call { body; _ } -> scan body
    | Stmt.Microkernel { body; _ } -> scan body
    | Stmt.Call _ -> ok := false
    | Stmt.Nop -> ()
  in
  scan body;
  !ok
  && Hashtbl.fold
       (fun n () acc ->
         acc && (not (Hashtbl.mem loaded n)) && not (Hashtbl.mem stored n))
       reduced true

(* one compiled body instance of a parallel loop *)
type par_instance = {
  pi_ref : int ref;
  pi_body : unit -> unit;
  pi_log : rlog;
  pi_checks : int ref; (* guard checks this instance ran since the join *)
}

(* ------------------------------------------------------------------ *)
(* Fused operands (unguarded code)

   Without flambda every [unit -> float] closure boxes its result, and a
   closure per tree node pays a call per leaf.  The plain executor
   therefore classifies each float operand at compile time into one of
   five kinds, and every Binop/Unop/Store/Reduce_to node emits ONE
   closure specialized on the kinds of its operands, with the operator
   matched inline: leaves (constants, iterators, loads) are read in the
   parent's own body and never called.  Interior nodes write their value
   into an all-float [slot] record (a [float ref] would box) that the
   parent reads after calling them.  Operand kinds are always matched
   outside the emitted closure: a float-valued match nested inside
   another match boxes. *)

type slot = { mutable v : float }

type fop =
  | F_const of float
  | F_iter of int ref                 (* [float_of_int !r] *)
  | F_cell of cell * int ref          (* load at a running-offset cell *)
  | F_load of cell * (unit -> int)    (* load at a computed offset *)
  | F_node of slot * (unit -> unit)   (* computed: call, then read slot *)

(* a flat offset: a cell a loop (or nobody, for constants) keeps current,
   or a thunk *)
type ofs =
  | O_run of int ref
  | O_fn of (unit -> int)

type fbinop = B_add | B_sub | B_mul | B_div | B_min | B_max | B_pow

type funop =
  | U_neg | U_abs | U_sqrt | U_exp | U_ln | U_sigmoid | U_tanh | U_floor
  | U_ceil | U_square

let[@inline] fbin op x y =
  match op with
  | B_add -> x +. y
  | B_sub -> x -. y
  | B_mul -> x *. y
  | B_div -> x /. y
  | B_min -> Float.min x y
  | B_max -> Float.max x y
  | B_pow -> Float.pow x y

let[@inline] fun1 op x =
  match op with
  | U_neg -> -.x
  | U_abs -> Float.abs x
  | U_sqrt -> sqrt x
  | U_exp -> exp x
  | U_ln -> log x
  | U_sigmoid -> 1.0 /. (1.0 +. exp (-.x))
  | U_tanh -> tanh x
  | U_floor -> floor x
  | U_ceil -> ceil x
  | U_square -> x *. x

let[@inline] fcmp op (x : float) y =
  match op with
  | Expr.Eq -> x = y
  | Expr.Ne -> x <> y
  | Expr.Lt -> x < y
  | Expr.Le -> x <= y
  | Expr.Gt -> x > y
  | _ -> x >= y (* Ge; other operators are rejected at compile time *)

let[@inline] icmp op (x : int) y =
  match op with
  | Expr.Eq -> x = y
  | Expr.Ne -> x <> y
  | Expr.Lt -> x < y
  | Expr.Le -> x <= y
  | Expr.Gt -> x > y
  | _ -> x >= y

(* unchecked float-buffer access; the annotation makes the primitive the
   unboxed float-array one *)
let ( .%() ) (a : float array) k = Array.unsafe_get a k
let ( .%()<- ) (a : float array) k v = Array.unsafe_set a k v

(* Materialize any operand as a slot-writing node (for the rare parents
   that are not specialized per kind: selects, comparisons, casts). *)
let as_node = function
  | F_node (s, f) -> (s, f)
  | k ->
    let s = { v = 0.0 } in
    let f =
      match k with
      | F_const x -> s.v <- x; fun () -> ()
      | F_iter r -> fun () -> s.v <- float_of_int !r
      | F_cell (c, r) -> fun () -> s.v <- c.fa.%(!r)
      | F_load (c, o) -> fun () -> s.v <- c.fa.%(o ())
      | F_node (_, f) -> f
    in
    (s, f)

let fuse_unop op a =
  let d = { v = 0.0 } in
  let node f = F_node (d, f) in
  match a with
  | F_const x -> F_const (fun1 op x)
  | F_iter r -> node (fun () -> d.v <- fun1 op (float_of_int !r))
  | F_cell (c, r) -> node (fun () -> d.v <- fun1 op c.fa.%(!r))
  | F_load (c, o) -> node (fun () -> d.v <- fun1 op c.fa.%(o ()))
  | F_node (s, f) -> node (fun () -> f (); d.v <- fun1 op s.v)

let fuse_binop op a b =
  let d = { v = 0.0 } in
  let node f = F_node (d, f) in
  match a, b with
  | F_const x, F_const y -> F_const (fbin op x y)
  | F_const x, F_iter q -> node (fun () -> d.v <- fbin op x (float_of_int !q))
  | F_const x, F_cell (cb, q) -> node (fun () -> d.v <- fbin op x cb.fa.%(!q))
  | F_const x, F_load (cb, ob) ->
    node (fun () -> d.v <- fbin op x cb.fa.%(ob ()))
  | F_const x, F_node (sb, fb) -> node (fun () -> fb (); d.v <- fbin op x sb.v)
  | F_iter p, F_const y -> node (fun () -> d.v <- fbin op (float_of_int !p) y)
  | F_iter p, F_iter q ->
    node (fun () -> d.v <- fbin op (float_of_int !p) (float_of_int !q))
  | F_iter p, F_cell (cb, q) ->
    node (fun () -> d.v <- fbin op (float_of_int !p) cb.fa.%(!q))
  | F_iter p, F_load (cb, ob) ->
    node (fun () -> d.v <- fbin op (float_of_int !p) cb.fa.%(ob ()))
  | F_iter p, F_node (sb, fb) ->
    node (fun () -> fb (); d.v <- fbin op (float_of_int !p) sb.v)
  | F_cell (ca, p), F_const y -> node (fun () -> d.v <- fbin op ca.fa.%(!p) y)
  | F_cell (ca, p), F_iter q ->
    node (fun () -> d.v <- fbin op ca.fa.%(!p) (float_of_int !q))
  | F_cell (ca, p), F_cell (cb, q) ->
    node (fun () -> d.v <- fbin op ca.fa.%(!p) cb.fa.%(!q))
  | F_cell (ca, p), F_load (cb, ob) ->
    node (fun () -> d.v <- fbin op ca.fa.%(!p) cb.fa.%(ob ()))
  | F_cell (ca, p), F_node (sb, fb) ->
    node (fun () -> fb (); d.v <- fbin op ca.fa.%(!p) sb.v)
  | F_load (ca, oa), F_const y ->
    node (fun () -> d.v <- fbin op ca.fa.%(oa ()) y)
  | F_load (ca, oa), F_iter q ->
    node (fun () -> d.v <- fbin op ca.fa.%(oa ()) (float_of_int !q))
  | F_load (ca, oa), F_cell (cb, q) ->
    node (fun () -> d.v <- fbin op ca.fa.%(oa ()) cb.fa.%(!q))
  | F_load (ca, oa), F_load (cb, ob) ->
    node (fun () -> let x = ca.fa.%(oa ()) in d.v <- fbin op x cb.fa.%(ob ()))
  | F_load (ca, oa), F_node (sb, fb) ->
    node (fun () -> fb (); d.v <- fbin op ca.fa.%(oa ()) sb.v)
  | F_node (sa, fa), F_const y -> node (fun () -> fa (); d.v <- fbin op sa.v y)
  | F_node (sa, fa), F_iter q ->
    node (fun () -> fa (); d.v <- fbin op sa.v (float_of_int !q))
  | F_node (sa, fa), F_cell (cb, q) ->
    node (fun () -> fa (); d.v <- fbin op sa.v cb.fa.%(!q))
  | F_node (sa, fa), F_load (cb, ob) ->
    node (fun () -> fa (); d.v <- fbin op sa.v cb.fa.%(ob ()))
  | F_node (sa, fa), F_node (sb, fb) ->
    node (fun () -> fa (); fb (); d.v <- fbin op sa.v sb.v)

(* Store of a float operand: one closure per (offset kind, value kind). *)
let fuse_store (c : cell) o v : unit -> unit =
  match o, v with
  | O_run r, F_const x -> fun () -> c.fa.%(!r) <- x
  | O_run r, F_iter q -> fun () -> c.fa.%(!r) <- float_of_int !q
  | O_run r, F_cell (a, q) -> fun () -> c.fa.%(!r) <- a.fa.%(!q)
  | O_run r, F_load (a, oa) -> fun () -> c.fa.%(!r) <- a.fa.%(oa ())
  | O_run r, F_node (s, f) -> fun () -> f (); c.fa.%(!r) <- s.v
  | O_fn o, F_const x -> fun () -> c.fa.%(o ()) <- x
  | O_fn o, F_iter q -> fun () -> c.fa.%(o ()) <- float_of_int !q
  | O_fn o, F_cell (a, q) -> fun () -> let x = a.fa.%(!q) in c.fa.%(o ()) <- x
  | O_fn o, F_load (a, oa) ->
    fun () -> let x = a.fa.%(oa ()) in c.fa.%(o ()) <- x
  | O_fn o, F_node (s, f) -> fun () -> f (); c.fa.%(o ()) <- s.v

(* In-place reduce of a float operand into a float-buffered target; the
   value is read before the target, as in the instrumented paths. *)
let fuse_reduce op (c : cell) o v : unit -> unit =
  let[@inline] upd k x = c.fa.%(k) <- combine op c.fa.%(k) x in
  match o, v with
  | O_run r, F_const x -> fun () -> upd !r x
  | O_run r, F_iter q -> fun () -> upd !r (float_of_int !q)
  | O_run r, F_cell (a, q) -> fun () -> upd !r a.fa.%(!q)
  | O_run r, F_load (a, oa) -> fun () -> upd !r a.fa.%(oa ())
  | O_run r, F_node (s, f) -> fun () -> f (); upd !r s.v
  | O_fn o, F_const x -> fun () -> upd (o ()) x
  | O_fn o, F_iter q -> fun () -> upd (o ()) (float_of_int !q)
  | O_fn o, F_cell (a, q) -> fun () -> let x = a.fa.%(!q) in upd (o ()) x
  | O_fn o, F_load (a, oa) -> fun () -> let x = a.fa.%(oa ()) in upd (o ()) x
  | O_fn o, F_node (s, f) -> fun () -> f (); upd (o ()) s.v

let ofs_thunk = function
  | O_run r -> fun () -> !r
  | O_fn f -> f

(* ------------------------------------------------------------------ *)
(* Expression compilation, dtype-directed *)

(* Guarded float expressions: plain thunks (the unguarded path compiles
   through [compile_fk]). *)
let rec compile_f (env : cenv) (e : Expr.t) : unit -> float =
  match e with
  | Expr.Binop ((Expr.Floor_div | Expr.Mod), _, _) ->
    (* integer op in a float context *)
    let fi = compile_i env e in
    fun () -> float_of_int (fi ())
  | Expr.Float_const f -> fun () -> f
  | Expr.Int_const n ->
    let f = float_of_int n in
    fun () -> f
  | Expr.Bool_const _ -> err "boolean used as a number"
  | Expr.Var x ->
    let r = find_int env x in
    fun () -> float_of_int !r
  | Expr.Load { l_var; l_indices } ->
    let c = find_cell env l_var in
    let off = compile_guarded_load_off env l_var c l_indices in
    fun () -> Tensor.unsafe_get_f (cell_tensor l_var c) (off ())
  | Expr.Unop (op, a) -> (
    let fa = compile_f env a in
    match op with
    | Expr.Neg -> fun () -> -.fa ()
    | Expr.Abs -> fun () -> Float.abs (fa ())
    | Expr.Sqrt -> fun () -> sqrt (fa ())
    | Expr.Exp -> fun () -> exp (fa ())
    | Expr.Ln -> fun () -> log (fa ())
    | Expr.Sigmoid -> fun () -> 1.0 /. (1.0 +. exp (-.fa ()))
    | Expr.Tanh -> fun () -> tanh (fa ())
    | Expr.Floor_op -> fun () -> floor (fa ())
    | Expr.Ceil_op -> fun () -> ceil (fa ())
    | Expr.Square ->
      fun () ->
        let v = fa () in
        v *. v
    | Expr.Not -> err "boolean used as a number")
  | Expr.Binop (op, a, b) -> (
    let fa = compile_f env a and fb = compile_f env b in
    match op with
    | Expr.Add -> fun () -> fa () +. fb ()
    | Expr.Sub -> fun () -> fa () -. fb ()
    | Expr.Mul -> fun () -> fa () *. fb ()
    | Expr.Div -> fun () -> fa () /. fb ()
    | Expr.Min -> fun () -> Float.min (fa ()) (fb ())
    | Expr.Max -> fun () -> Float.max (fa ()) (fb ())
    | Expr.Pow -> fun () -> Float.pow (fa ()) (fb ())
    | _ -> err "boolean expression used as a number")
  | Expr.Select (c, a, b) ->
    let fc = compile_b env c and fa = compile_f env a and fb = compile_f env b in
    fun () -> if fc () then fa () else fb ()
  | Expr.Cast (_, a) -> compile_f env a
  | Expr.Meta_ndim p | Expr.Meta_shape (p, _) ->
    err "meta expression on %s not partially evaluated" p

(* Fused float operand (plain path only; see {!fop}). *)
and compile_fk (env : cenv) (e : Expr.t) : fop =
  match e with
  | Expr.Float_const f -> F_const f
  | Expr.Int_const n -> F_const (float_of_int n)
  | Expr.Var x -> F_iter (find_int env x)
  | Expr.Load { l_var; l_indices } ->
    let c = find_cell env l_var in
    if not (Hashtbl.mem env.cells l_var) then orphan_node l_var c
    else if Types.is_float (dtype_of env l_var) then (
      match compile_offset_k env l_var c l_indices with
      | O_run r -> F_cell (c, r)
      | O_fn f -> F_load (c, f))
    else
      let o = ofs_thunk (compile_offset_k env l_var c l_indices) in
      let d = { v = 0.0 } in
      F_node (d, fun () -> d.v <- float_of_int (Array.unsafe_get c.ia (o ())))
  | Expr.Binop ((Expr.Floor_div | Expr.Mod), _, _) ->
    (* integer op in a float context *)
    let fi = compile_i env e in
    let d = { v = 0.0 } in
    F_node (d, fun () -> d.v <- float_of_int (fi ()))
  | Expr.Unop (op, a) ->
    let op =
      match op with
      | Expr.Neg -> U_neg
      | Expr.Abs -> U_abs
      | Expr.Sqrt -> U_sqrt
      | Expr.Exp -> U_exp
      | Expr.Ln -> U_ln
      | Expr.Sigmoid -> U_sigmoid
      | Expr.Tanh -> U_tanh
      | Expr.Floor_op -> U_floor
      | Expr.Ceil_op -> U_ceil
      | Expr.Square -> U_square
      | Expr.Not -> err "boolean used as a number"
    in
    fuse_unop op (compile_fk env a)
  | Expr.Binop (op, a, b) ->
    let op =
      match op with
      | Expr.Add -> B_add
      | Expr.Sub -> B_sub
      | Expr.Mul -> B_mul
      | Expr.Div -> B_div
      | Expr.Min -> B_min
      | Expr.Max -> B_max
      | Expr.Pow -> B_pow
      | _ -> err "boolean expression used as a number"
    in
    let ka = compile_fk env a in
    fuse_binop op ka (compile_fk env b)
  | Expr.Select (c, a, b) ->
    let fc = compile_b env c in
    let sa, fa = as_node (compile_fk env a) in
    let sb, fb = as_node (compile_fk env b) in
    let d = { v = 0.0 } in
    F_node
      ( d,
        fun () ->
          if fc () then begin
            fa ();
            d.v <- sa.v
          end
          else begin
            fb ();
            d.v <- sb.v
          end )
  | Expr.Cast (_, a) -> compile_fk env a
  | Expr.Bool_const _ -> err "boolean used as a number"
  | Expr.Meta_ndim p | Expr.Meta_shape (p, _) ->
    err "meta expression on %s not partially evaluated" p

(* An access to a name no enclosing scope binds: compiled, but raises
   {!Exec_error} if it ever executes (see {!find_cell}). *)
and orphan_node name c =
  F_node ({ v = 0.0 }, fun () -> ignore (cell_tensor name c))

and compile_i (env : cenv) (e : Expr.t) : unit -> int =
  if env.guard = None then compile_i_fused env e else compile_i_node env e

(* Plain-path integers: [unit -> int] closures do not box, so only loads
   (cached buffers) and float casts (through a slot) differ from the
   guarded path. *)
and compile_i_fused (env : cenv) (e : Expr.t) : unit -> int =
  match e with
  | Expr.Load { l_var; l_indices } -> (
    let c = find_cell env l_var in
    if not (Hashtbl.mem env.cells l_var) then fun () ->
      ignore (cell_tensor l_var c);
      0
    else
      let o = compile_offset_k env l_var c l_indices in
      match Types.is_float (dtype_of env l_var), o with
      | true, O_run r -> fun () -> int_of_float c.fa.%(!r)
      | true, O_fn f -> fun () -> int_of_float c.fa.%(f ())
      | false, O_run r -> fun () -> Array.unsafe_get c.ia !r
      | false, O_fn f -> fun () -> Array.unsafe_get c.ia (f ()))
  | Expr.Cast (_, a) ->
    let s, f = as_node (compile_fk env a) in
    fun () ->
      f ();
      int_of_float s.v
  | _ -> compile_i_node env e

and compile_i_node (env : cenv) (e : Expr.t) : unit -> int =
  match e with
  | Expr.Int_const n -> fun () -> n
  | Expr.Float_const f ->
    let n = int_of_float f in
    fun () -> n
  | Expr.Var x ->
    let r = find_int env x in
    fun () -> !r
  | Expr.Load { l_var; l_indices } ->
    (* guarded (the plain path compiles through [compile_i_fused]) *)
    let c = find_cell env l_var in
    let off = compile_guarded_load_off env l_var c l_indices in
    if Types.is_float (dtype_of env l_var) then fun () ->
      int_of_float (Tensor.unsafe_get_f (cell_tensor l_var c) (off ()))
    else fun () -> Tensor.unsafe_get_i (cell_tensor l_var c) (off ())
  | Expr.Unop (Expr.Neg, a) ->
    let fa = compile_i env a in
    fun () -> -fa ()
  | Expr.Unop (Expr.Abs, a) ->
    let fa = compile_i env a in
    fun () -> abs (fa ())
  | Expr.Binop (op, a, b) -> (
    let fa = compile_i env a and fb = compile_i env b in
    match op with
    | Expr.Add -> fun () -> fa () + fb ()
    | Expr.Sub -> fun () -> fa () - fb ()
    | Expr.Mul -> fun () -> fa () * fb ()
    | Expr.Floor_div -> fun () -> Expr.ifloor_div (fa ()) (fb ())
    | Expr.Mod -> fun () -> Expr.imod (fa ()) (fb ())
    | Expr.Min -> fun () -> min (fa ()) (fb ())
    | Expr.Max -> fun () -> max (fa ()) (fb ())
    | _ -> err "non-integer operator in index expression")
  | Expr.Select (c, a, b) ->
    let fc = compile_b env c and fa = compile_i env a and fb = compile_i env b in
    fun () -> if fc () then fa () else fb ()
  | Expr.Cast (_, a) ->
    let fa = compile_f env a in
    fun () -> int_of_float (fa ())
  | _ -> err "expression %s is not an integer" (Expr.to_string e)

and compile_b (env : cenv) (e : Expr.t) : unit -> bool =
  match e with
  | Expr.Bool_const b -> fun () -> b
  | Expr.Unop (Expr.Not, a) ->
    let fa = compile_b env a in
    fun () -> not (fa ())
  | Expr.Binop ((Expr.L_and as op), a, b) | Expr.Binop ((Expr.L_or as op), a, b)
    ->
    let fa = compile_b env a and fb = compile_b env b in
    if op = Expr.L_and then fun () -> fa () && fb ()
    else fun () -> fa () || fb ()
  | Expr.Binop (op, a, b) -> (
    (* comparisons: integer compare when both sides are integer-shaped *)
    let is_intish e =
      let rec go = function
        | Expr.Int_const _ | Expr.Var _ -> true
        | Expr.Load { l_var; _ } -> not (Types.is_float (dtype_of env l_var))
        | Expr.Binop ((Expr.Add | Expr.Sub | Expr.Mul | Expr.Floor_div
                      | Expr.Mod | Expr.Min | Expr.Max), x, y) ->
          go x && go y
        | Expr.Unop (Expr.Neg, x) -> go x
        | _ -> false
      in
      go e
    in
    (match op with
     | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> ()
     | _ -> err "not a boolean operator");
    if is_intish a && is_intish b then
      let fa = compile_i env a and fb = compile_i env b in
      fun () -> icmp op (fa ()) (fb ())
    else if env.guard = None then
      let sa, fa = as_node (compile_fk env a) in
      let sb, fb = as_node (compile_fk env b) in
      fun () ->
        fa ();
        fb ();
        fcmp op sa.v sb.v
    else
      let fa = compile_f env a and fb = compile_f env b in
      match op with
      | Expr.Eq -> fun () -> fa () = fb ()
      | Expr.Ne -> fun () -> fa () <> fb ()
      | Expr.Lt -> fun () -> fa () < fb ()
      | Expr.Le -> fun () -> fa () <= fb ()
      | Expr.Gt -> fun () -> fa () > fb ()
      | Expr.Ge -> fun () -> fa () >= fb ()
      | _ -> err "not a boolean operator")
  | Expr.Select (c, a, b) ->
    let fc = compile_b env c and fa = compile_b env a and fb = compile_b env b in
    fun () -> if fc () then fa () else fb ()
  | _ -> err "expression %s is not boolean" (Expr.to_string e)

(* Flat-offset compilation.  A compile-time-static shape gets constant
   strides, constant folding through {!Ft_lower.Address}, and
   strength-reduced running offsets for indices affine in an enclosing
   loop's iterator.  Constant offsets are cells nobody advances. *)
and compile_offset (env : cenv) name (c : cell) (idx : Expr.t list) :
    unit -> int =
  ofs_thunk (compile_offset_k env name c idx)

and compile_offset_k (env : cenv) name (c : cell) (idx : Expr.t list) : ofs =
  if idx = [] then O_run (ref 0)
  else
    match Hashtbl.find_opt env.shapes name with
    | Some dims when Array.length dims = List.length idx -> (
      let ss = static_strides dims in
      match Address.plan ~strides:ss idx with
      | Some pl -> (
        let terms =
          List.map (fun (v, a) -> (find_int env v, a)) pl.Address.pl_terms
        in
        let cst = pl.Address.pl_const in
        match
          List.find_opt
            (fun ol -> List.exists (fun (r, _) -> r == ol.ol_ref) terms)
            env.loops
        with
        | Some ol ->
          let coeff =
            snd (List.find (fun (r, _) -> r == ol.ol_ref) terms)
          in
          let cellr = ref 0 in
          ol.ol_trackers <-
            { tk_cell = cellr; tk_base = emit_affine terms cst;
              tk_coeff = coeff }
            :: ol.ol_trackers;
          O_run cellr
        | None when terms = [] -> O_run (ref cst)
        | None -> O_fn (emit_affine terms cst))
      | None ->
        (* static strides, non-affine indices *)
        let thunks = List.mapi (fun k e -> (compile_i env e, ss.(k))) idx in
        let f =
          match thunks with
          | [ (f0, s0) ] -> if s0 = 1 then f0 else fun () -> f0 () * s0
          | [ (f0, s0); (f1, s1) ] -> fun () -> (f0 () * s0) + (f1 () * s1)
          | _ ->
            let fs = Array.of_list (List.map fst thunks) in
            let ss = Array.of_list (List.map snd thunks) in
            fun () ->
              let off = ref 0 in
              for k = 0 to Array.length fs - 1 do
                off := !off + (fs.(k) () * ss.(k))
              done;
              !off
        in
        O_fn f)
    | _ -> O_fn (offset_thunk name c (List.map (compile_i env) idx))

(* Guarded access compilation.  Decides at compile time whether this
   site's bounds check is elided — statically proved by {!Boundcheck} —
   in which case the regular fast offset path (including strength
   reduction) is kept, or emitted as an explicit per-dimension check.
   Checked sites evaluate their subscripts left-to-right exactly like
   the interpreter, so the first fault (and its diagnostic) is
   byte-identical across executors. *)
and guard_access (env : cenv) (g : gstate) ~(access : Diag.access) name
    (c : cell) (indices : Expr.t list) =
  let sid, ctx, iters = guard_provenance g in
  let st = g.gc_stats in
  st.gs_sites <- st.gs_sites + 1;
  let proved =
    match sid with
    | Some sid ->
      Hashtbl.mem g.gc_proved
        (Boundcheck.site_key ~sid ~tensor:name ~kind:(bc_kind access)
           ~indices)
    | None -> false
  in
  if proved then begin
    st.gs_elided <- st.gs_elided + 1;
    `Fast (compile_offset env name c indices)
  end
  else begin
    st.gs_checked <- st.gs_checked + 1;
    let thunks = Array.of_list (List.map (compile_i env) indices) in
    let n = Array.length thunks in
    let eval_idx () =
      let a = Array.make n 0 in
      for k = 0 to n - 1 do
        a.(k) <- thunks.(k) ()
      done;
      a
    in
    let oob t idx dim =
      raise
        (Diag.Diag_error
           (Diag.oob ~fn:g.gc_fn ?sid ~context:ctx ~iters:(iters ()) ~access
              ~tensor:name ~dtype:(Tensor.dtype t) ~shape:(Tensor.shape t)
              ~index:idx ~dim ()))
    in
    let counter = g.gc_counter in
    let check idx =
      (match counter with
       | None -> st.gs_checks <- st.gs_checks + 1
       | Some r -> incr r);
      let t = cell_tensor name c in
      let dims = Tensor.dims t in
      if Array.length dims <> n then oob t idx None;
      let strides = Tensor.strides t in
      let off = ref 0 in
      for k = 0 to n - 1 do
        let i = idx.(k) in
        if i < 0 || i >= dims.(k) then oob t idx (Some k);
        off := !off + (i * strides.(k))
      done;
      !off
    in
    `Checked (eval_idx, check)
  end

(* Checked flat offset of a guarded load (used by both the float and the
   integer load paths): subscripts, bounds check, uninit check — the
   interpreter's exact order. *)
and compile_guarded_load_off (env : cenv) name (c : cell)
    (indices : Expr.t list) : unit -> int =
  let g = Option.get env.guard in
  let acc = guard_access env g ~access:Diag.Acc_load name c indices in
  let unin = guard_uninit_check g name c in
  match acc with
  | `Fast off -> (
    match unin with
    | None -> off
    | Some u ->
      fun () ->
        let o = off () in
        u o None;
        o)
  | `Checked (eval_idx, check) ->
    fun () ->
      let idx = eval_idx () in
      let o = check idx in
      (match unin with
       | Some u -> u o (Some idx)
       | None -> ());
      o

(* ------------------------------------------------------------------ *)
(* Statement compilation *)

(* Supervision wrapper: with [~hooks:true] every host-level non-Var_def
   statement (the cost model's kernel segmentation) gets a
   [Machine.on_kernel] call, and a kernel rooted at a For additionally
   polls the cancellation/deadline token once per iteration of that
   outermost loop.  Without hooks this falls straight through, so the
   unsupervised compiled closures are unchanged. *)
and compile_stmt (env : cenv) (s : Stmt.t) : unit -> unit =
  if not env.sup_host then compile_stmt_node env s
  else
    match s.Stmt.node with
    | Stmt.Nop | Stmt.Seq _ | Stmt.Var_def _ -> compile_stmt_node env s
    | _ ->
      env.sup_host <- false;
      env.sup_poll <- (match s.Stmt.node with Stmt.For _ -> true | _ -> false);
      let f = compile_stmt_node env s in
      env.sup_poll <- false;
      env.sup_host <- true;
      fun () ->
        Ft_machine.Machine.on_kernel ();
        f ()

and compile_stmt_node (env : cenv) (s : Stmt.t) : unit -> unit =
  (match env.guard with
   | Some g -> g.gc_stmt <- Some s
   | None -> ());
  match s.Stmt.node with
  | Stmt.Nop -> fun () -> ()
  | Stmt.Seq ss ->
    let fs = Array.of_list (List.map (compile_stmt env) ss) in
    fun () -> Array.iter (fun f -> f ()) fs
  | Stmt.Store { s_var; s_indices; s_value } when env.guard <> None ->
    compile_guarded_store env (Option.get env.guard) s_var s_indices s_value
  | Stmt.Store { s_var; s_indices; s_value } ->
    let c = find_cell env s_var in
    if not (Hashtbl.mem env.cells s_var) then fun () ->
      ignore (cell_tensor s_var c)
    else
      let o = compile_offset_k env s_var c s_indices in
      if Types.is_float (dtype_of env s_var) then
        fuse_store c o (compile_fk env s_value)
      else
        let fv = compile_i env s_value in
        let o = ofs_thunk o in
        fun () -> Array.unsafe_set c.ia (o ()) (fv ())
  | Stmt.Reduce_to r when env.guard <> None ->
    compile_guarded_reduce env (Option.get env.guard) r
  | Stmt.Reduce_to { r_var; r_indices; r_op; r_value; _ } -> (
    let c = find_cell env r_var in
    let deferred =
      match env.region with
      | Some rg when not (Hashtbl.mem rg.rg_locals r_var) ->
        (* target lives outside the parallel region: defer via the event
           log; the master replays in sequential iteration order *)
        let site_id = rg.rg_next in
        rg.rg_next <- rg.rg_next + 1;
        if rg.rg_first then
          rg.rg_sites :=
            { rs_name = r_var; rs_cell = c; rs_op = r_op } :: !(rg.rg_sites);
        Some (rg.rg_log, site_id)
      | _ -> None
    in
    let o = compile_offset_k env r_var c r_indices in
    let v = compile_fk env r_value in
    match deferred with
    | _ when not (Hashtbl.mem env.cells r_var) ->
      fun () -> ignore (cell_tensor r_var c)
    | Some (lg, site_id) ->
      let s, f = as_node v in
      let o = ofs_thunk o in
      fun () ->
        let k = o () in
        f ();
        log_push lg site_id k s.v
    | None when Types.is_float (dtype_of env r_var) -> fuse_reduce r_op c o v
    | None ->
      (* integer target: combine in float, store truncated, exactly as
         the tensor accessors do *)
      let s, f = as_node v in
      let o = ofs_thunk o in
      fun () ->
        let k = o () in
        f ();
        Array.unsafe_set c.ia k
          (int_of_float (combine r_op (float_of_int c.ia.(k)) s.v)))
  | Stmt.Var_def d -> (
    let name = d.Stmt.d_name in
    let dims = List.map (compile_i env) d.Stmt.d_shape in
    let sshape = static_shape d.Stmt.d_shape in
    let c = new_cell () in
    Hashtbl.add env.cells name c;
    Hashtbl.add env.dtypes name d.Stmt.d_dtype;
    (match sshape with
     | Some dims -> Hashtbl.add env.shapes name dims
     | None -> ());
    (match env.region with
     | Some rg -> Hashtbl.add rg.rg_locals name ()
     | None -> ());
    let shadow =
      match env.guard with
      | Some g ->
        let bref = ref Bytes.empty in
        Hashtbl.add g.gc_shadows name bref;
        Some bref
      | None -> None
    in
    let body = compile_stmt env d.Stmt.d_body in
    (match shadow, env.guard with
     | Some _, Some g -> Hashtbl.remove g.gc_shadows name
     | _ -> ());
    (match env.region with
     | Some rg -> Hashtbl.remove rg.rg_locals name
     | None -> ());
    (match sshape with
     | Some _ -> Hashtbl.remove env.shapes name
     | None -> ());
    Hashtbl.remove env.dtypes name;
    Hashtbl.remove env.cells name;
    let dtype = d.Stmt.d_dtype in
    match sshape with
    | Some sdims when env.guard = None ->
      (* Recycled buffer: created on first entry, then re-armed on every
         later one — charged to the installed budget and zeroed exactly
         as [Tensor.create] would.  It belongs to this compiled artifact,
         which is sound because an artifact never runs two calls at once
         (see the top of this file). *)
      let held = ref None in
      fun () ->
        (match !held with
         | Some t -> Tensor.recycle t
         | None -> held := Some (Tensor.create dtype (Array.copy sdims)));
        bind c !held;
        body ();
        c.t <- None;
        Option.iter Tensor.arena_free !held
    | _ -> (
      let make =
        match sshape with
        | Some sdims -> fun () -> Tensor.create dtype (Array.copy sdims)
        | None ->
          fun () ->
            Tensor.create dtype (Array.of_list (List.map (fun f -> f ()) dims))
      in
      let init_shadow =
        match shadow with
        | None -> fun (_ : Tensor.t) -> ()
        | Some bref ->
          fun t -> bref := Bytes.make (max 1 (Tensor.numel t)) '\000'
      in
      fun () ->
        let t = make () in
        bind c (Some t);
        init_shadow t;
        body ();
        bind c None;
        Tensor.arena_free t))
  | Stmt.For f ->
    let pool_scope =
      match f.Stmt.f_property.Stmt.parallel with
      | Some (Types.Openmp | Types.Cuda_block_x | Types.Cuda_block_y) -> true
      | _ -> false
    in
    if not (env.par && (not env.in_par) && pool_scope) then
      compile_seq_for env f
    else begin
      (* dispatch on the polyhedral verdict (computed once in [compile]):
         [Safe] iterations share no element, so reduces update their
         targets directly; [Safe_with_atomics] shares reduce targets
         across iterations and goes through the deferred-reduction log,
         which additionally needs the [par_legal] ordering constraint
         (no load/store of a deferred target in the body); [Racy] loops
         are demoted to sequential with a logged reason ([`Raise] was
         already handled at compile entry). *)
      let demote reason =
        !race_logger
          (Printf.sprintf
             "race fallback: parallel loop #%d (for %s) runs sequentially: %s"
             s.Stmt.sid f.Stmt.f_iter reason);
        compile_seq_for env f
      in
      match Hashtbl.find_opt env.verdicts s.Stmt.sid with
      | Some Race.Safe -> compile_par_for ~defer:false env f
      | Some (Race.Safe_with_atomics _) ->
        if par_legal f.Stmt.f_body then compile_par_for ~defer:true env f
        else
          demote
            "reduce targets are shared between iterations and also \
             loaded/stored in the body (deferred-reduction constraint)"
      | Some (Race.Racy conflicts) ->
        demote
          (Printf.sprintf "static race verdict Racy: %s"
             (match conflicts with
              | c :: _ -> Ft_dep.Dep.conflict_to_string c
              | [] -> "(no conflict detail)"))
      | None ->
        (* annotated loop unknown to the verdict table (e.g. a body
           compiled standalone in tests): keep the conservative
           syntactic gate *)
        if par_legal f.Stmt.f_body then compile_par_for ~defer:true env f
        else demote "reduce target also loaded/stored (syntactic scan)"
    end
  | Stmt.If i -> (
    let fc = compile_b env i.Stmt.i_cond in
    let ft = compile_stmt env i.Stmt.i_then in
    match i.Stmt.i_else with
    | None -> fun () -> if fc () then ft ()
    | Some e ->
      let fe = compile_stmt env e in
      fun () -> if fc () then ft () else fe ())
  | Stmt.Assert_stmt (c, b) ->
    let fc = compile_b env c in
    let fb = compile_stmt env b in
    let msg = Expr.to_string c in
    fun () ->
      if not (fc ()) then err "assertion failed: %s" msg;
      fb ()
  | Stmt.Eval _ -> fun () -> ()
  | Stmt.Lib_call { body; _ } -> compile_stmt env body
  | Stmt.Microkernel { body; _ } -> compile_microkernel env s body
  | Stmt.Call { callee; _ } ->
    err "call to %s not inlined; run partial evaluation first" callee

(* Microkernel node: the blockization pass asserted the body matches a
   hand-written flat kernel.  The tensorized closure is only legal when
   nothing needs the scalar loop nest's per-access effects: guards fault
   per access and parallel regions replay stores from logs — in both
   cases fall back to compiling the body (semantics are defined by the
   body, so this is always sound).  The actual kernel emission lives
   lower in the file, next to compile_stmt's other helpers; see
   [emit_microkernel]. *)
and compile_microkernel (env : cenv) (s : Stmt.t) (body : Stmt.t) :
    unit -> unit =
  if env.guard <> None || env.region <> None then
    compile_stmt env body
  else
    match emit_microkernel env s body with
    | Some f -> f
    | None -> compile_stmt env body

(* Kernel emission: re-derive the operand layout from the wrapped nest
   with this compilation's own shape/dtype tables (a disagreement with
   the pass's view just returns [None] — scalar fallback).  Base
   offsets compile through [compile_offset], so bases affine in an
   {e enclosing} loop's iterator still get running-offset trackers;
   per-kernel-loop strides are compile-time constants from the
   descriptor.  The closure re-fetches each operand's float buffer per
   invocation (cells rebind per run) and drops to the precompiled
   scalar body when operands alias at run time — register accumulation
   is only bitwise-safe when the destination is a distinct buffer. *)
and emit_microkernel (env : cenv) (_s : Stmt.t) (body : Stmt.t) :
    (unit -> unit) option =
  match
    Blockize.recognize
      ~shape_of:(fun v -> Hashtbl.find_opt env.shapes v)
      ~dtype_of:(fun v -> Hashtbl.find_opt env.dtypes v)
      body
  with
  | None -> None
  | Some d ->
    let operand (ac : Blockize.access) =
      let c = find_cell env ac.Blockize.ac_var in
      let off = compile_offset env ac.Blockize.ac_var c ac.Blockize.ac_base in
      (c, off, ac.Blockize.ac_strides)
    in
    let scalar = compile_stmt env body in
    (match d with
     | Blockize.Matmul { mm_i; mm_j; mm_k; mm_c; mm_a; mm_b; mm_init } ->
       let m = mm_i.Blockize.bl_len
       and n = mm_j.Blockize.bl_len
       and kdim = mm_k.Blockize.bl_len in
       let cc, cf, cs = operand mm_c in
       let ca, af, sa = operand mm_a in
       let cb, bf, sb = operand mm_b in
       Some
         (fun () ->
           let c = cc.fa and a = ca.fa and b = cb.fa in
           if c == a || c == b then scalar ()
           else
             Kernels.matmul ~m ~n ~kdim ~init:mm_init ~c ~cb:(cf ())
               ~csi:cs.(0) ~csj:cs.(1) ~a ~ab:(af ()) ~asi:sa.(0)
               ~asj:sa.(1) ~ask:sa.(2) ~b ~bb:(bf ()) ~bsi:sb.(0)
               ~bsj:sb.(1) ~bsk:sb.(2))
     | Blockize.Dot { d_k; d_dst; d_a; d_b } ->
       let kdim = d_k.Blockize.bl_len in
       let dc, df, _ = operand d_dst in
       let ca, af, sa = operand d_a in
       let cb, bf, sb = operand d_b in
       Some
         (fun () ->
           let dd = dc.fa and a = ca.fa and b = cb.fa in
           if dd == a || dd == b then scalar ()
           else
             Kernels.dot ~kdim ~d:dd ~db:(df ()) ~a ~ab:(af ()) ~as_:sa.(0)
               ~b ~bb:(bf ()) ~bs:sb.(0))
     | Blockize.Axpy { x_k; x_dst; x_a; x_b } ->
       let kdim = x_k.Blockize.bl_len in
       let dc, df, ds = operand x_dst in
       let ca, af, sa = operand x_a in
       let cb, bf, sb = operand x_b in
       Some
         (fun () ->
           let dd = dc.fa and a = ca.fa and b = cb.fa in
           if dd == a || dd == b then scalar ()
           else
             Kernels.axpy ~kdim ~d:dd ~db:(df ()) ~ds:ds.(0) ~a ~ab:(af ())
               ~as_:sa.(0) ~b ~bb:(bf ()) ~bs:sb.(0))
     | Blockize.Reduce { r_k; r_dst; r_src } ->
       let kdim = r_k.Blockize.bl_len in
       let dc, df, _ = operand r_dst in
       let ca, af, sa = operand r_src in
       Some
         (fun () ->
           let dd = dc.fa and a = ca.fa in
           if dd == a then scalar ()
           else Kernels.reduce ~kdim ~d:dd ~db:(df ()) ~a ~ab:(af ()) ~as_:sa.(0)))

(* Guarded store: subscripts, value, bounds check, NaN/Inf poison check
   (float dtypes), shadow mark, store — the interpreter's exact order, so
   the first fault is byte-identical. *)
and compile_guarded_store (env : cenv) (g : gstate) s_var s_indices s_value :
    unit -> unit =
  let c = find_cell env s_var in
  let acc = guard_access env g ~access:Diag.Acc_store s_var c s_indices in
  let mark = guard_mark_shadow g s_var in
  let nan = guard_nonfinite g ~access:Diag.Acc_store s_var in
  (* a literal constant stored value (e.g. the -inf identity of a
     max-reduction) is intentional, not poison *)
  let nan_check = not (Expr.is_constant s_value) in
  if Types.is_float (dtype_of env s_var) then
    let fv = compile_f env s_value in
    match acc with
    | `Fast off -> (
      match mark with
      | None ->
        (* proved site, non-local target: the common hot path keeps only
           the poison check on top of the fast offset *)
        fun () ->
          let t = cell_tensor s_var c in
          let o = off () in
          let v = fv () in
          if nan_check && Float.is_nan v then
            nan (index_of_offset t o) v;
          Tensor.unsafe_set_f t o v
      | Some m ->
        fun () ->
          let t = cell_tensor s_var c in
          let o = off () in
          let v = fv () in
          if nan_check && Float.is_nan v then
            nan (index_of_offset t o) v;
          m o;
          Tensor.unsafe_set_f t o v)
    | `Checked (eval_idx, check) ->
      fun () ->
        let idx = eval_idx () in
        let v = fv () in
        let o = check idx in
        if nan_check && Float.is_nan v then nan idx v;
        (match mark with
         | Some m -> m o
         | None -> ());
        Tensor.unsafe_set_f (cell_tensor s_var c) o v
  else
    let fv = compile_i env s_value in
    match acc with
    | `Fast off ->
      fun () ->
        let t = cell_tensor s_var c in
        let o = off () in
        let v = fv () in
        (match mark with
         | Some m -> m o
         | None -> ());
        Tensor.set_flat_i t o v
    | `Checked (eval_idx, check) ->
      fun () ->
        let idx = eval_idx () in
        let v = fv () in
        let o = check idx in
        (match mark with
         | Some m -> m o
         | None -> ());
        Tensor.set_flat_i (cell_tensor s_var c) o v

(* Guarded reduce: subscripts, value, bounds check, NaN/Inf poison
   check (float dtypes, on the operand), uninit check (a reduce reads
   its target), shadow mark, combine.  Inside a parallel
   region with a non-local target, the checks run at event-push time and
   the combine is replayed unguarded by the master. *)
and compile_guarded_reduce (env : cenv) (g : gstate) (r : Stmt.reduce) :
    unit -> unit =
  let { Stmt.r_var; r_indices; r_op; r_value; _ } = r in
  let c = find_cell env r_var in
  let acc = guard_access env g ~access:Diag.Acc_reduce r_var c r_indices in
  let unin = guard_uninit_check g r_var c in
  let mark = guard_mark_shadow g r_var in
  let nan = guard_nonfinite g ~access:Diag.Acc_reduce r_var in
  let is_f = Types.is_float (dtype_of env r_var) in
  let nan_check = is_f && not (Expr.is_constant r_value) in
  let fv = compile_f env r_value in
  (* everything between offset availability and the final combine *)
  let checks t o idx_opt v =
    if nan_check && Float.is_nan v then
      nan
        (match idx_opt with
         | Some idx -> idx
         | None -> index_of_offset t o)
        v;
    (match unin with
     | Some u -> u o idx_opt
     | None -> ());
    match mark with
    | Some m -> m o
    | None -> ()
  in
  match env.region with
  | Some rg when not (Hashtbl.mem rg.rg_locals r_var) -> (
    let site_id = rg.rg_next in
    rg.rg_next <- rg.rg_next + 1;
    if rg.rg_first then
      rg.rg_sites :=
        { rs_name = r_var; rs_cell = c; rs_op = r_op }
        :: !(rg.rg_sites);
    let lg = rg.rg_log in
    match acc with
    | `Fast off ->
      fun () ->
        let t = cell_tensor r_var c in
        let o = off () in
        let v = fv () in
        checks t o None v;
        log_push lg site_id o v
    | `Checked (eval_idx, check) ->
      fun () ->
        let idx = eval_idx () in
        let v = fv () in
        let t = cell_tensor r_var c in
        let o = check idx in
        checks t o (Some idx) v;
        log_push lg site_id o v)
  | _ -> (
    match acc with
    | `Fast off ->
      fun () ->
        let t = cell_tensor r_var c in
        let o = off () in
        let v = fv () in
        checks t o None v;
        Tensor.unsafe_set_f t o (combine r_op (Tensor.unsafe_get_f t o) v)
    | `Checked (eval_idx, check) ->
      fun () ->
        let idx = eval_idx () in
        let v = fv () in
        let t = cell_tensor r_var c in
        let o = check idx in
        checks t o (Some idx) v;
        Tensor.unsafe_set_f t o (combine r_op (Tensor.unsafe_get_f t o) v))

and compile_seq_for (env : cenv) (f : Stmt.for_loop) : unit -> unit =
  let poll = env.sup_poll in
  env.sup_poll <- false;
  let fb = compile_i env f.Stmt.f_begin in
  let fe = compile_i env f.Stmt.f_end in
  let fs = compile_i env f.Stmt.f_step in
  let r = ref 0 in
  let ol = { ol_ref = r; ol_trackers = [] } in
  Hashtbl.add env.ints f.Stmt.f_iter r;
  env.loops <- ol :: env.loops;
  (match env.guard with
   | Some g -> g.gc_iters <- (f.Stmt.f_iter, r) :: g.gc_iters
   | None -> ());
  let body = compile_stmt env f.Stmt.f_body in
  (match env.guard with
   | Some g -> g.gc_iters <- List.tl g.gc_iters
   | None -> ());
  env.loops <- List.tl env.loops;
  Hashtbl.remove env.ints f.Stmt.f_iter;
  (* kernel-root loop under supervision: one token poll per iteration *)
  let body =
    if not poll then body
    else
      fun () ->
        Ft_machine.Machine.poll ();
        body ()
  in
  match ol.ol_trackers with
  | [] ->
    fun () ->
      let e = fe () and st = fs () in
      let i = ref (fb ()) in
      while !i < e do
        r := !i;
        body ();
        i := !i + st
      done
  | [ tk ] ->
    fun () ->
      let e = fe () and st = fs () in
      let i = ref (fb ()) in
      if !i < e then begin
        r := !i;
        tk.tk_cell := tk.tk_base ();
        body ();
        i := !i + st;
        let inc = tk.tk_coeff * st in
        while !i < e do
          r := !i;
          tk.tk_cell := !(tk.tk_cell) + inc;
          body ();
          i := !i + st
        done
      end
  | tks ->
    let tks = Array.of_list tks in
    let n = Array.length tks in
    fun () ->
      let e = fe () and st = fs () in
      let i = ref (fb ()) in
      if !i < e then begin
        r := !i;
        for k = 0 to n - 1 do
          let tk = tks.(k) in
          tk.tk_cell := tk.tk_base ()
        done;
        body ();
        i := !i + st;
        while !i < e do
          r := !i;
          for k = 0 to n - 1 do
            let tk = tks.(k) in
            tk.tk_cell := !(tk.tk_cell) + (tk.tk_coeff * st)
          done;
          body ();
          i := !i + st
        done
      end

(* A parallel loop compiles its body [Exec_par.max_domains] times — one
   instance per potential worker, each with a private iterator cell,
   private locals and a private event log.  At run time the iteration
   space splits into one contiguous chunk per configured domain; chunk 0
   runs on the master.  After the join the master replays the
   deferred-reduction logs in chunk order (= sequential iteration
   order). *)
and compile_par_for ?(defer = true) (env : cenv) (f : Stmt.for_loop) :
    unit -> unit =
  let poll = env.sup_poll in
  env.sup_poll <- false;
  let supd = env.sup in
  let fb = compile_i env f.Stmt.f_begin in
  let fe = compile_i env f.Stmt.f_end in
  let fs = compile_i env f.Stmt.f_step in
  let k_inst = Exec_par.max_domains in
  let sites_acc = ref [] in
  let make_instance k =
    let r = ref 0 in
    let lg = make_rlog () in
    let rg =
      { rg_locals = Hashtbl.create 8; rg_sites = sites_acc;
        rg_first = (k = 0); rg_next = 0; rg_log = lg }
    in
    let checks = ref 0 in
    (match env.guard with Some g -> g.gc_counter <- Some checks | None -> ());
    env.in_par <- true;
    (* [defer:false] (statically [Safe] loop): no iteration shares an
       element with another, so reduces write their targets directly and
       the event log stays empty — no replay cost, still bitwise equal
       to sequential execution *)
    env.region <- (if defer then Some rg else None);
    (* hide outer loops: a tracker hoisted outside the region would be
       initialized by the master with a stale worker iterator *)
    let saved_loops = env.loops in
    env.loops <- [];
    Hashtbl.add env.ints f.Stmt.f_iter r;
    (match env.guard with
     | Some g -> g.gc_iters <- (f.Stmt.f_iter, r) :: g.gc_iters
     | None -> ());
    let body = compile_stmt env f.Stmt.f_body in
    (match env.guard with
     | Some g -> g.gc_iters <- List.tl g.gc_iters
     | None -> ());
    Hashtbl.remove env.ints f.Stmt.f_iter;
    env.loops <- saved_loops;
    env.region <- None;
    env.in_par <- false;
    (match env.guard with Some g -> g.gc_counter <- None | None -> ());
    { pi_ref = r; pi_body = body; pi_log = lg; pi_checks = checks }
  in
  let rec build k acc =
    if k = k_inst then Array.of_list (List.rev acc)
    else build (k + 1) (make_instance k :: acc)
  in
  let instances = build 0 [] in
  let sites = Array.of_list (List.rev !sites_acc) in
  let replay chunks =
    for ci = 0 to chunks - 1 do
      let lg = instances.(ci).pi_log in
      for j = 0 to lg.lg_len - 1 do
        let site = sites.(lg.lg_site.(j)) in
        let c = site.rs_cell in
        let o = lg.lg_off.(j) in
        ignore (cell_tensor site.rs_name c);
        if Array.length c.fa > 0 then
          c.fa.%(o) <- combine site.rs_op c.fa.%(o) lg.lg_val.(j)
        else
          Array.unsafe_set c.ia o
            (int_of_float
               (combine site.rs_op (float_of_int c.ia.(o)) lg.lg_val.(j)))
      done;
      lg.lg_len <- 0
    done
  in
  (* the workers' private guard-check counts, summed on the master after
     the join (whether or not a chunk faulted), so the total is exact *)
  let count_checks =
    match env.guard with
    | None -> fun () -> ()
    | Some g ->
      let st = g.gc_stats in
      fun () ->
        Array.iter
          (fun inst ->
            st.gs_checks <- st.gs_checks + !(inst.pi_checks);
            inst.pi_checks := 0)
          instances
  in
  fun () ->
    let b = fb () in
    let e = fe () and st = fs () in
    if st <= 0 then begin
      (* degenerate step: preserve sequential semantics exactly *)
      let inst = instances.(0) in
      inst.pi_log.lg_len <- 0;
      let i = ref b in
      (try
         while !i < e do
           if poll then Ft_machine.Machine.poll ();
           inst.pi_ref := !i;
           inst.pi_body ();
           i := !i + st
         done
       with exn ->
         count_checks ();
         raise exn);
      count_checks ();
      replay 1
    end
    else
      let trip = if e <= b then 0 else 1 + ((e - b - 1) / st) in
      if trip > 0 then begin
        let chunks = min (min trip (Exec_par.num_domains ())) k_inst in
        let q = trip / chunks and rem = trip mod chunks in
        (match Exec_par.run_chunks chunks (fun ci ->
            let inst = instances.(ci) in
            inst.pi_log.lg_len <- 0;
            let lo = (ci * q) + min ci rem in
            let hi = lo + q + if ci < rem then 1 else 0 in
            let r = inst.pi_ref and body = inst.pi_body in
            if supd then begin
              (* supervised: poll the token and bail out as soon as a
                 sibling chunk poisons the region *)
              let j = ref lo in
              while !j < hi && not (Exec_par.aborted ()) do
                if poll then Ft_machine.Machine.poll ();
                r := b + (!j * st);
                body ();
                incr j
              done
            end
            else
              for j = lo to hi - 1 do
                r := b + (j * st);
                body ()
              done)
         with
         | () -> count_checks ()
         | exception exn ->
           count_checks ();
           raise exn);
        replay chunks
      end

(* ------------------------------------------------------------------ *)

type compiled = {
  cd_fn : Stmt.func;
  cd_run : (string * Tensor.t) list -> (string * int) list -> unit;
  cd_guard : guard_stats option;
      (* populated iff compiled with [~guard:true]; counters accumulate
         across runs *)
}

(** Compile a function once; the result can be run many times with
    different argument tensors (bound by parameter name).  With
    [~parallel:true], annotated loops run on the {!Exec_par} domain
    pool, gated by the static race verifier ({!Ft_analyze.Race}): [Safe]
    loops run parallel with direct reduce updates, [Safe_with_atomics]
    loops run parallel through the deferred-reduction log, and [Racy]
    loops compile sequentially with the reason reported through
    {!race_logger}.

    With [~guard:true], every access is guarded as in
    {!Interp.run_func}: accesses the static prover
    ({!Ft_analyze.Boundcheck}) certifies in-bounds keep the unguarded
    fast path (no runtime bounds check, strength reduction intact);
    unproved sites get a runtime bounds check.  Uninitialized-read and
    NaN/Inf poison checks are always on under guard.  Faults raise
    {!Ft_ir.Diag.Diag_error} with the same rendering as the
    interpreter's. *)
let compile ?(parallel = false) ?(guard = false) ?(hooks = false)
    (fn : Stmt.func) : compiled =
  (* IR-to-IR lowering before closure compilation.  Guarded compilation
     keeps the tree the bounds prover certified; it still shares the
     strength-reduced addressing below. *)
  let fn =
    if (not guard) && Ft_lower.Pass.enabled () then Ft_lower.Pass.lower fn
    else fn
  in
  let verdicts = Hashtbl.create 8 in
  if parallel then
    List.iter
      (fun (r : Race.loop_report) ->
        Hashtbl.replace verdicts r.Race.lr_sid r.Race.lr_verdict)
      (Race.check_func fn);
  let gstate =
    if not guard then None
    else
      Some
        { gc_fn = fn.Stmt.fn_name;
          gc_proved = Boundcheck.proved_keys (Boundcheck.check_func fn);
          gc_shadows = Hashtbl.create 8;
          gc_iters = [];
          gc_stmt = None;
          gc_counter = None;
          gc_stats =
            { gs_sites = 0; gs_checked = 0; gs_elided = 0; gs_checks = 0 } }
  in
  let env =
    { cells = Hashtbl.create 32; orphans = Hashtbl.create 8;
      ints = Hashtbl.create 32; gints = Hashtbl.create 16;
      dtypes = Hashtbl.create 32; shapes = Hashtbl.create 32;
      par = parallel; verdicts; in_par = false; region = None; loops = [];
      guard = gstate; sup = hooks; sup_host = hooks; sup_poll = false }
  in
  List.iter
    (fun (p : Stmt.param) ->
      Hashtbl.add env.cells p.Stmt.p_name (new_cell ());
      Hashtbl.add env.dtypes p.Stmt.p_name p.Stmt.p_dtype;
      match p.Stmt.p_shape with
      | Stmt.Fixed dims -> (
        match static_shape dims with
        | Some sdims -> Hashtbl.add env.shapes p.Stmt.p_name sdims
        | None -> ())
      | Stmt.Any_dim -> ())
    fn.Stmt.fn_params;
  let body = compile_stmt env fn.Stmt.fn_body in
  (* entry errors render through Diag so both executors emit
     byte-identical messages (see Interp.run_func under guard) *)
  let entry_err d = raise (Exec_error (Diag.to_string d)) in
  let run args sizes =
    List.iter
      (fun (n, v) ->
        match Hashtbl.find_opt env.gints n with
        | Some r -> r := v
        | None -> entry_err (Diag.unknown_size ~fn:fn.Stmt.fn_name n))
      sizes;
    List.iter
      (fun (n, _) ->
        if
          not
            (List.exists
               (fun (p : Stmt.param) -> p.Stmt.p_name = n)
               fn.Stmt.fn_params)
        then entry_err (Diag.unknown_arg ~fn:fn.Stmt.fn_name n))
      args;
    List.iter
      (fun (p : Stmt.param) ->
        match List.assoc_opt p.Stmt.p_name args with
        | None -> entry_err (Diag.missing_arg ~fn:fn.Stmt.fn_name p.Stmt.p_name)
        | Some t ->
          (match Hashtbl.find_opt env.shapes p.Stmt.p_name with
           | Some dims when Tensor.shape t <> dims ->
             entry_err
               (Diag.arg_shape ~fn:fn.Stmt.fn_name p.Stmt.p_name
                  ~declared:dims ~got:(Tensor.shape t))
           | _ -> ());
          (* fused loads index the buffer the declared dtype implies *)
          if Types.is_float p.Stmt.p_dtype <> Types.is_float (Tensor.dtype t)
          then
            entry_err
              (Diag.make ~tensor:p.Stmt.p_name ~code:Diag.Shape_mismatch
                 ~fn:fn.Stmt.fn_name
                 (Printf.sprintf
                    "argument %s: tensor dtype %s does not match declared %s"
                    p.Stmt.p_name
                    (Types.dtype_to_string (Tensor.dtype t))
                    (Types.dtype_to_string p.Stmt.p_dtype)));
          (match Hashtbl.find_opt env.cells p.Stmt.p_name with
           | Some c -> bind c (Some t)
           | None -> ()))
      fn.Stmt.fn_params;
    body ()
  in
  { cd_fn = fn; cd_run = run;
    cd_guard = Option.map (fun g -> g.gc_stats) gstate }

(** One-shot convenience mirroring {!Interp.run_func}. *)
let run_func ?(sizes = []) ?parallel ?guard ?hooks (fn : Stmt.func)
    (args : (string * Tensor.t) list) : unit =
  (compile ?parallel ?guard ?hooks fn).cd_run args sizes
