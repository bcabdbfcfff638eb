(** Pipeline pass 4: blockization — pattern-match inner matmul / dot /
    AXPY / reduction loop nests and wrap them in
    {!Ft_ir.Stmt.Microkernel} intrinsic nodes.

    The wrapped body stays in the tree and defines the semantics (the
    reference interpreter always executes it); the compiled backend may
    swap in a hand-written flat kernel when nothing needs the scalar
    nest's per-access effects (guards, deferred parallel regions).

    Every kernel preserves the scalar nest's per-output-element
    accumulation order, and the runtime stores all floats as full IEEE
    doubles, so kernel results are {e bitwise} equal to the loop nest —
    the differential oracle holds them to that.

    Recognized patterns (all float-typed, non-atomic [R_add], unit-step
    loops with static trip counts, load-free affine indices, and a
    destination tensor distinct from the sources):

    - {b matmul}: [for i: for j: (C[ci,cj] = init;)? for k: C[ci,cj] +=
      A[...] * B[...]] with [C] invariant in [k] — lowered to a
      register-tiled i-j-k kernel;
    - {b dot}: [for k: d[..] += a[...] * b[...]] with [d] invariant in
      [k] — register accumulator;
    - {b axpy}: the same shape with [d] varying in [k] — fused
      multiply-accumulate over strided arrays;
    - {b reduce}: [for k: d[..] += a[...]] with [d] invariant in [k] —
      strided sum reduction.

    Recognition is shared with the backend: the pass decides {e what} to
    wrap using the function's static shapes, and [Compile_exec] calls
    {!recognize} again at closure-compilation time (with its own shape
    tables) to derive the operand layout it emits. *)

open Ft_ir

(** One kernel loop: unit step, static positive trip count.  [bl_begin]
    may be any expression over enclosing variables; the backend
    evaluates it per kernel invocation. *)
type loop = {
  bl_iter : string;
  bl_begin : Expr.t;
  bl_len : int;
}

(** One tensor operand.  [ac_base] is the original index list with every
    kernel iterator substituted by its loop's begin expression;
    [ac_strides].(l) is the flat-offset stride of kernel loop [l] in
    elements. *)
type access = {
  ac_var : string;
  ac_base : Expr.t list;
  ac_strides : int array;
}

type desc =
  | Matmul of {
      mm_i : loop;
      mm_j : loop;
      mm_k : loop;
      mm_c : access;  (* strides over (i,j,k); k-stride = 0 *)
      mm_a : access;
      mm_b : access;
      mm_init : float option;  (* Some v: C = v before the k loop *)
    }
  | Dot of { d_k : loop; d_dst : access; d_a : access; d_b : access }
  | Axpy of { x_k : loop; x_dst : access; x_a : access; x_b : access }
  | Reduce of { r_k : loop; r_dst : access; r_src : access }

let desc_name = function
  | Matmul _ -> "matmul"
  | Dot _ -> "dot"
  | Axpy _ -> "axpy"
  | Reduce _ -> "reduce"

(* ------------------------------------------------------------------ *)
(* Recognition *)

let static_int = Expr.static_int

(* A kernel-eligible loop: sequential, unit step, static trip >= 1. *)
let as_loop (f : Stmt.for_loop) : loop option =
  if f.Stmt.f_property.Stmt.parallel <> None then None
  else
    match
      (static_int f.Stmt.f_step, static_int f.Stmt.f_begin,
       static_int f.Stmt.f_end)
    with
    | Some 1, Some b, Some e when e - b >= 1 ->
      Some { bl_iter = f.Stmt.f_iter; bl_begin = f.Stmt.f_begin;
             bl_len = e - b }
    | Some 1, _, _ -> (
      (* dynamic bounds: accept only a static difference *)
      match static_int (Expr.sub f.Stmt.f_end f.Stmt.f_begin) with
      | Some len when len >= 1 ->
        Some { bl_iter = f.Stmt.f_iter; bl_begin = f.Stmt.f_begin;
               bl_len = len }
      | _ -> None)
    | _ -> None

(* Operand layout: float dtype, static shape, load-free affine indices.
   Strides are per kernel loop; the base is the index list at each
   kernel loop's begin. *)
let as_access ~shape_of ~dtype_of ~(iters : loop list) var
    (indices : Expr.t list) : access option =
  match (dtype_of var, shape_of var) with
  | Some dt, Some dims
    when Types.is_float dt && Array.length dims = List.length indices -> (
    let forms = List.map Linear.of_expr indices in
    if not (List.for_all Option.is_some forms) then None
    else
      let ss = Address.static_strides dims in
      let strides =
        Array.of_list
          (List.map
             (fun (l : loop) ->
               let total = ref 0 in
               List.iteri
                 (fun d f ->
                   total :=
                     !total + (ss.(d) * Linear.coeff l.bl_iter (Option.get f)))
                 forms;
               !total)
             iters)
      in
      let begin_env x =
        List.find_map
          (fun (l : loop) ->
            if String.equal l.bl_iter x then Some l.bl_begin else None)
          iters
      in
      let base = List.map (Expr.subst_var begin_env) indices in
      Some { ac_var = var; ac_base = base; ac_strides = strides })
  | _ -> None

let distinct_iters (ls : loop list) =
  let ns = List.map (fun l -> l.bl_iter) ls in
  List.length (List.sort_uniq String.compare ns) = List.length ns

(* No loop's begin may reference an outer kernel iterator (triangular
   nests): operand bases substitute begins once, non-recursively, so a
   residual kernel iterator in a base would be unresolvable — and the
   access would not be separable per loop anyway. *)
let begins_independent (ls : loop list) =
  let rec ok outer = function
    | [] -> true
    | l :: rest ->
      List.for_all
        (fun v -> not (List.mem v outer))
        (Expr.free_vars l.bl_begin)
      && ok (l.bl_iter :: outer) rest
  in
  ok [] ls

(* [for k: dst[..] += value] — the three single-loop patterns. *)
let match_inner_reduce ~shape_of ~dtype_of (f : Stmt.for_loop) :
    desc option =
  match (as_loop f, f.Stmt.f_body.Stmt.node) with
  | ( Some lk,
      Stmt.Reduce_to
        { r_var; r_indices; r_op = Types.R_add; r_value; r_atomic = false } )
    -> (
    let acc v idx = as_access ~shape_of ~dtype_of ~iters:[ lk ] v idx in
    match acc r_var r_indices with
    | None -> None
    | Some dst -> (
      match r_value with
      | Expr.Binop
          ( Expr.Mul,
            Expr.Load { l_var = av; l_indices = ai },
            Expr.Load { l_var = bv; l_indices = bi } )
        when r_var <> av && r_var <> bv -> (
        match (acc av ai, acc bv bi) with
        | Some a, Some b ->
          if dst.ac_strides.(0) = 0 then
            Some (Dot { d_k = lk; d_dst = dst; d_a = a; d_b = b })
          else Some (Axpy { x_k = lk; x_dst = dst; x_a = a; x_b = b })
        | _ -> None)
      | Expr.Load { l_var = sv; l_indices = si }
        when r_var <> sv && dst.ac_strides.(0) = 0 -> (
        match acc sv si with
        | Some src -> Some (Reduce { r_k = lk; r_dst = dst; r_src = src })
        | None -> None)
      | _ -> None))
  | _ -> None

(* [for i: for j: (C = init;)? for k: C += A * B]. *)
let match_matmul ~shape_of ~dtype_of (fi : Stmt.for_loop) : desc option =
  match (as_loop fi, fi.Stmt.f_body.Stmt.node) with
  | Some li, Stmt.For fj -> (
    match (as_loop fj, fj.Stmt.f_body.Stmt.node) with
    | Some lj, inner_node -> (
      (* peel an optional constant init store off the j body *)
      let init, kloop_node =
        match inner_node with
        | Stmt.Seq
            [ { Stmt.node = Stmt.Store st; _ }; ({ Stmt.node = Stmt.For _; _ } as kl) ]
          -> (Some st, Some kl.Stmt.node)
        | Stmt.For _ -> (None, Some inner_node)
        | _ -> (None, None)
      in
      match kloop_node with
      | Some (Stmt.For fk) -> (
        match (as_loop fk, fk.Stmt.f_body.Stmt.node) with
        | ( Some lk,
            Stmt.Reduce_to
              { r_var; r_indices; r_op = Types.R_add;
                r_value =
                  Expr.Binop
                    ( Expr.Mul,
                      Expr.Load { l_var = av; l_indices = ai },
                      Expr.Load { l_var = bv; l_indices = bi } );
                r_atomic = false } )
          when r_var <> av && r_var <> bv && distinct_iters [ li; lj; lk ]
               && begins_independent [ li; lj; lk ]
          -> (
          let iters = [ li; lj; lk ] in
          let acc v idx = as_access ~shape_of ~dtype_of ~iters v idx in
          let init_ok, init_val =
            match init with
            | None -> (true, None)
            | Some st ->
              if
                String.equal st.Stmt.s_var r_var
                && List.length st.Stmt.s_indices = List.length r_indices
                && List.for_all2 Expr.equal st.Stmt.s_indices r_indices
              then
                match st.Stmt.s_value with
                | Expr.Float_const v -> (true, Some v)
                | _ -> (false, None)
              else (false, None)
          in
          if not init_ok then None
          else
            match (acc r_var r_indices, acc av ai, acc bv bi) with
            (* C invariant in k (register accumulator) and j-distinct
               (the kernel's register tile holds 4 separate cells) *)
            | Some c, Some a, Some b
              when c.ac_strides.(2) = 0 && c.ac_strides.(1) <> 0 ->
              Some
                (Matmul
                   { mm_i = li; mm_j = lj; mm_k = lk; mm_c = c; mm_a = a;
                     mm_b = b; mm_init = init_val })
            | _ -> None)
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

(** Recognize a blockizable nest rooted at [s].  [shape_of] must return
    the static dims of a tensor (or [None]) and [dtype_of] its dtype —
    the pass derives these from the function, the backend from its
    compile environment; both must agree for the backend to actually
    emit the kernel (it re-derives the descriptor itself, so a
    disagreement just falls back to the scalar body). *)
let recognize ~shape_of ~dtype_of (s : Stmt.t) : desc option =
  match s.Stmt.node with
  | Stmt.For f -> (
    match match_matmul ~shape_of ~dtype_of f with
    | Some d -> Some d
    | None -> match_inner_reduce ~shape_of ~dtype_of f)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The rewrite *)

let static_shape (dims : Expr.t list) : int array option =
  let sdims = List.map static_int dims in
  if List.for_all Option.is_some sdims then
    Some (Array.of_list (List.map Option.get sdims))
  else None

let run (fn : Stmt.func) : Stmt.func =
  let shapes : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  let dtypes : (string, Types.dtype) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (p : Stmt.param) ->
      Hashtbl.replace dtypes p.Stmt.p_name p.Stmt.p_dtype;
      match p.Stmt.p_shape with
      | Stmt.Fixed dims -> (
        match static_shape dims with
        | Some a -> Hashtbl.replace shapes p.Stmt.p_name a
        | None -> ())
      | Stmt.Any_dim -> ())
    fn.Stmt.fn_params;
  let shape_of v = Hashtbl.find_opt shapes v in
  let dtype_of v = Hashtbl.find_opt dtypes v in
  let rec go (s : Stmt.t) : Stmt.t =
    match s.Stmt.node with
    (* already wrapped: leave alone.  A [Lib_call] keeps its wrapper (the
       cost model prices it) but its body is an ordinary nest, so it
       falls through to the recursive case below. *)
    | Stmt.Microkernel _ -> s
    | Stmt.Var_def d ->
      (* lexical scoping: bind, recurse, restore *)
      let saved_s = Hashtbl.find_opt shapes d.Stmt.d_name in
      let saved_d = Hashtbl.find_opt dtypes d.Stmt.d_name in
      Hashtbl.replace dtypes d.Stmt.d_name d.Stmt.d_dtype;
      (match static_shape d.Stmt.d_shape with
       | Some a -> Hashtbl.replace shapes d.Stmt.d_name a
       | None -> Hashtbl.remove shapes d.Stmt.d_name);
      let body = go d.Stmt.d_body in
      (match saved_s with
       | Some a -> Hashtbl.replace shapes d.Stmt.d_name a
       | None -> Hashtbl.remove shapes d.Stmt.d_name);
      (match saved_d with
       | Some t -> Hashtbl.replace dtypes d.Stmt.d_name t
       | None -> Hashtbl.remove dtypes d.Stmt.d_name);
      Stmt.with_node s (Stmt.Var_def { d with Stmt.d_body = body })
    | Stmt.For _ -> (
      match recognize ~shape_of ~dtype_of s with
      | Some d -> Stmt.microkernel (desc_name d) s
      | None -> Stmt.with_children s (List.map go (Stmt.children s)))
    | _ -> Stmt.with_children s (List.map go (Stmt.children s))
  in
  { fn with Stmt.fn_body = go fn.Stmt.fn_body }
