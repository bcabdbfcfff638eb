(** Reference interpreter for the FreeTensor IR.

    This is the semantic ground truth: every transformation (schedules,
    AD, auto-scheduling, lowering) must leave programs that this
    interpreter evaluates to the same outputs.  It is a plain tree walker;
    the faster closure-compiling executor ({!Compile_exec}) is
    cross-checked against it in the test suite.

    With [?profile] the walker additionally counts every executed
    operation, tensor access, loop trip and host-level kernel into a
    {!Ft_profile.Profile.t}.  It is the only profiler: to observe the
    code the closure executor serves, profile the tree that executor
    compiled ([Compile_exec.compiled.cd_fn]). *)

open Ft_ir
open Ft_runtime
module Profile = Ft_profile.Profile

type value =
  | Vf of float
  | Vi of int
  | Vb of bool

exception Interp_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Interp_error s)) fmt

let as_f = function
  | Vf f -> f
  | Vi i -> float_of_int i
  | Vb _ -> err "boolean used as number"

let as_i = function
  | Vi i -> i
  | Vf f -> int_of_float f
  | Vb _ -> err "boolean used as integer"

let as_b = function
  | Vb b -> b
  | Vi i -> i <> 0
  | Vf _ -> err "float used as boolean"

(* {1 Dynamic race sanitizer}

   ThreadSanitizer-style shadow state for parallel-annotated loops: while
   executing (sequentially) inside an annotated loop, every tensor element
   remembers which iteration of that loop last stored, read, or reduced
   (per reduce op) it.  An access pair from two different iterations where
   at least one side is a non-commuting write is a race: the annotation
   promises the iterations can run concurrently, and concurrent execution
   of such a pair is unordered.  Commuting pairs — read/read and same-op
   reduce/reduce — are fine (the latter needs atomics, which the static
   verifier reports separately).  Being exact on the executed trace, this
   catches none of the analysis' over-approximation: a clean sanitizer run
   on a racy-verdict program is evidence the verdict is conservative. *)

type race = {
  race_tensor : string;
  race_offset : int;      (** flat element offset *)
  race_loop : int;        (** sid of the parallel-annotated [For] *)
  race_iter : string;     (** its iterator name *)
  race_kind : string;     (** e.g. ["store/store"] *)
  race_iter_a : int;      (** earlier-observed iteration *)
  race_iter_b : int;      (** current iteration *)
}

exception Race_detected of string

let race_to_string r =
  Printf.sprintf
    "race on %s[flat %d] across iterations %s=%d and %s=%d of parallel \
     loop #%d (%s)"
    r.race_tensor r.race_offset r.race_iter r.race_iter_a r.race_iter
    r.race_iter_b r.race_loop r.race_kind

type shadow_cell = {
  mutable sc_store : int option;  (* iteration of last Store *)
  mutable sc_read : int option;   (* iteration of last Load *)
  mutable sc_reduces : (Types.reduce_op * int) list;
      (* last iteration per reduce op — a list because mixed-op reduces
         to one element must be caught pairwise (at most 4 ops) *)
}

type san_region = {
  sr_sid : int;
  sr_iter_name : string;
  mutable sr_iter : int;
  sr_locals : (string, int) Hashtbl.t;
      (* tensors Var_def'd inside this region: fresh per iteration, so
         exempt.  Value is a nesting count (Var_def may shadow). *)
  sr_shadow : (string * int, shadow_cell) Hashtbl.t;
}

type san_state = {
  mutable regions : san_region list; (* innermost first *)
  mutable races : race list;         (* reverse order, capped *)
  mutable nraces : int;
}

let san_race_cap = 64

(* {1 Memory sanitizer (guarded execution)}

   Shadow state for [~guard:true]: per-local-tensor init bitmaps for
   uninitialized-read detection, plus the provenance needed to build a
   {!Diag.t} at the fault point — enclosing iterator names (innermost
   first) and the statement being executed.  Parameters are considered
   fully initialized by the caller; only [Var_def] locals get bitmaps. *)
type gstate = {
  gi_fn : string;
  gi_shadows : (string, Bytes.t) Hashtbl.t;
      (* '\000' = never stored; Hashtbl.add/remove mirrors Var_def scoping *)
  mutable gi_iters : string list; (* innermost first *)
  mutable gi_stmt : Stmt.t option;
}

type env = {
  scalars : (string, value) Hashtbl.t;
  tensors : (string, Tensor.t) Hashtbl.t;
  mtypes : (string, Types.mtype) Hashtbl.t; (* for DRAM classification *)
  prof : Profile.t option;
  mutable pcur : Profile.counters option; (* current statement's counters *)
  san : san_state option;
  guard : gstate option;
  sup : bool; (* a supervisor run context is installed *)
  mutable sup_host : bool;
      (* currently at host (kernel-boundary) level: the next non-Seq,
         non-Var_def statement is a kernel root *)
  mutable sup_poll : bool;
      (* the next For is a kernel root: poll the supervisor token once
         per iteration of that outermost loop *)
}

let make_env ?profile ?(sanitize = false) ?guard_fn () =
  let sup = Ft_machine.Machine.supervised () in
  { scalars = Hashtbl.create 16; tensors = Hashtbl.create 16;
    mtypes = Hashtbl.create 16; prof = profile; pcur = None;
    sup;
    (* under profiling, exec_host owns the kernel segmentation *)
    sup_host = sup && profile = None;
    sup_poll = false;
    san =
      (if sanitize then Some { regions = []; races = []; nraces = 0 }
       else None);
    guard =
      (match guard_fn with
       | Some fn ->
         Some
           { gi_fn = fn; gi_shadows = Hashtbl.create 16; gi_iters = [];
             gi_stmt = None }
       | None -> None) }

let guard_iters env g =
  List.rev_map
    (fun n ->
      ( n,
        match Hashtbl.find_opt env.scalars n with
        | Some v -> as_i v
        | None -> 0 ))
    g.gi_iters

let guard_sid g =
  match g.gi_stmt with
  | Some s -> Some s.Stmt.sid
  | None -> None

let guard_ctx g =
  match g.gi_stmt with
  | Some s -> Diag.context_of_stmt s
  | None -> ""

(* Checked flat offset: a Tensor fault becomes a structured diagnostic
   with full provenance. *)
let guard_offset env g ~access name t idx =
  match Tensor.flat_index t idx with
  | off -> off
  | exception Tensor.Fault f ->
    let dim =
      match f with
      | Tensor.Out_of_bounds { dim; _ } -> Some dim
      | _ -> None
    in
    raise
      (Diag.Diag_error
         (Diag.oob ~fn:g.gi_fn ?sid:(guard_sid g) ~context:(guard_ctx g)
            ~iters:(guard_iters env g) ~access ~tensor:name
            ~dtype:(Tensor.dtype t) ~shape:(Tensor.shape t) ~index:idx ~dim
            ()))

let guard_uninit env g ~name t ~off ~idx =
  match Hashtbl.find_opt g.gi_shadows name with
  | Some sh when Bytes.get sh off = '\000' ->
    raise
      (Diag.Diag_error
         (Diag.uninit ~fn:g.gi_fn ?sid:(guard_sid g) ~context:(guard_ctx g)
            ~iters:(guard_iters env g) ~tensor:name ~dtype:(Tensor.dtype t)
            ~shape:(Tensor.shape t) ~index:idx ()))
  | _ -> ()

(* NaN is the poison the guard hunts: it propagates silently and never
   compares equal.  +/-inf is a legitimate IEEE sentinel (softmax-style
   masking stores -inf and max-reduces over it), so it is not flagged. *)
let guard_finite env g ~access ~name ~idx v =
  if Float.is_nan v then
    raise
      (Diag.Diag_error
         (Diag.nonfinite ~fn:g.gi_fn ?sid:(guard_sid g)
            ~context:(guard_ctx g) ~iters:(guard_iters env g) ~access
            ~tensor:name ~index:idx ~value:v ()))

let guard_mark g name off =
  match Hashtbl.find_opt g.gi_shadows name with
  | Some sh -> Bytes.set sh off '\001'
  | None -> ()

let san_offset t idx =
  let strides = Tensor.strides t in
  let off = ref 0 in
  Array.iteri (fun d i -> off := !off + (i * strides.(d))) idx;
  !off

let san_report st (rg : san_region) name off kind prev =
  st.nraces <- st.nraces + 1;
  if st.nraces <= san_race_cap then
    st.races <-
      { race_tensor = name; race_offset = off; race_loop = rg.sr_sid;
        race_iter = rg.sr_iter_name; race_kind = kind; race_iter_a = prev;
        race_iter_b = rg.sr_iter }
      :: st.races

let san_cell (rg : san_region) name off =
  let key = (name, off) in
  match Hashtbl.find_opt rg.sr_shadow key with
  | Some c -> c
  | None ->
    let c = { sc_store = None; sc_read = None; sc_reduces = [] } in
    Hashtbl.replace rg.sr_shadow key c;
    c

(* One access inside the active parallel regions.  Each enclosing region
   is checked independently: a race w.r.t. any annotated loop is a race. *)
let san_access env name t idx (kind : [ `Read | `Store | `Reduce of Types.reduce_op ]) =
  match env.san with
  | None -> ()
  | Some st ->
    (match st.regions with
     | [] -> ()
     | regions ->
       let off = san_offset t idx in
       List.iter
         (fun rg ->
           if not (Hashtbl.mem rg.sr_locals name) then begin
             let c = san_cell rg name off in
             let i = rg.sr_iter in
             let cross = function
               | Some j when j <> i -> Some j
               | _ -> None
             in
             (match kind with
              | `Read ->
                (match cross c.sc_store with
                 | Some j -> san_report st rg name off "store/load" j
                 | None -> ());
                List.iter
                  (fun (_, j) ->
                    if j <> i then
                      san_report st rg name off "reduce/load" j)
                  c.sc_reduces;
                c.sc_read <- Some i
              | `Store ->
                (match cross c.sc_store with
                 | Some j -> san_report st rg name off "store/store" j
                 | None -> ());
                (match cross c.sc_read with
                 | Some j -> san_report st rg name off "load/store" j
                 | None -> ());
                List.iter
                  (fun (_, j) ->
                    if j <> i then
                      san_report st rg name off "reduce/store" j)
                  c.sc_reduces;
                c.sc_store <- Some i
              | `Reduce op ->
                (match cross c.sc_store with
                 | Some j -> san_report st rg name off "store/reduce" j
                 | None -> ());
                (match cross c.sc_read with
                 | Some j -> san_report st rg name off "load/reduce" j
                 | None -> ());
                List.iter
                  (fun (op', j) ->
                    if op' <> op && j <> i then
                      san_report st rg name off
                        (Printf.sprintf "reduce(%s)/reduce(%s)"
                           (Types.reduce_op_to_string op')
                           (Types.reduce_op_to_string op))
                        j)
                  c.sc_reduces;
                c.sc_reduces <-
                  (op, i) :: List.remove_assoc op c.sc_reduces)
           end)
         regions)

(* Var_def inside an active region: the tensor is re-created on every
   iteration, so cross-iteration matches on its name are false positives.
   Counted (not flagged) because a nested Var_def may shadow. *)
let san_def_enter env name =
  match env.san with
  | None -> ()
  | Some st ->
    List.iter
      (fun rg ->
        let n =
          match Hashtbl.find_opt rg.sr_locals name with
          | Some n -> n
          | None -> 0
        in
        Hashtbl.replace rg.sr_locals name (n + 1))
      st.regions

let san_def_exit env name =
  match env.san with
  | None -> ()
  | Some st ->
    List.iter
      (fun rg ->
        match Hashtbl.find_opt rg.sr_locals name with
        | Some 1 -> Hashtbl.remove rg.sr_locals name
        | Some n -> Hashtbl.replace rg.sr_locals name (n - 1)
        | None -> ())
      st.regions

let tensor env name =
  try Hashtbl.find env.tensors name
  with Not_found -> err "unbound tensor %s" name

let is_dram env name =
  match Hashtbl.find_opt env.mtypes name with
  | Some (Types.Cpu_heap | Types.Gpu_global) -> true
  | _ -> false

let record_access recorder env c name t =
  match env.prof with
  | Some p ->
    recorder p c ~dram:(is_dram env name)
      ~name
      ~elem:(Types.dtype_size (Tensor.dtype t))
      ~total:(Tensor.byte_size t)
  | None -> ()

let rec eval env (e : Expr.t) : value =
  (match env.pcur with
   | Some c -> Profile.bump_expr c e
   | None -> ());
  match e with
  | Expr.Int_const n -> Vi n
  | Expr.Float_const f -> Vf f
  | Expr.Bool_const b -> Vb b
  | Expr.Var x -> (
    match Hashtbl.find_opt env.scalars x with
    | Some v -> v
    | None -> (
      (* allow reading a 0-D tensor through its bare name *)
      match Hashtbl.find_opt env.tensors x with
      | Some t when Tensor.ndim t = 0 ->
        if Types.is_float (Tensor.dtype t) then Vf (Tensor.get_flat_f t 0)
        else Vi (Tensor.get_flat_i t 0)
      | _ -> err "unbound variable %s" x))
  | Expr.Load { l_var; l_indices } ->
    let t = tensor env l_var in
    let idx = Array.of_list (List.map (fun e -> as_i (eval env e)) l_indices) in
    (match env.pcur with
     | Some c -> record_access Profile.record_read env c l_var t
     | None -> ());
    if env.san <> None then san_access env l_var t idx `Read;
    (match env.guard with
     | None ->
       if Types.is_float (Tensor.dtype t) then Vf (Tensor.get_f t idx)
       else Vi (Tensor.get_i t idx)
     | Some g ->
       let off = guard_offset env g ~access:Diag.Acc_load l_var t idx in
       guard_uninit env g ~name:l_var t ~off ~idx;
       if Types.is_float (Tensor.dtype t) then Vf (Tensor.get_flat_f t off)
       else Vi (Tensor.get_flat_i t off))
  | Expr.Unop (op, a) -> eval_unop env op a
  | Expr.Binop (op, a, b) -> eval_binop env op a b
  | Expr.Select (c, a, b) -> if as_b (eval env c) then eval env a else eval env b
  | Expr.Cast (dt, a) ->
    let v = eval env a in
    if Types.is_float dt then Vf (as_f v) else Vi (as_i v)
  | Expr.Meta_ndim p -> err "Meta_ndim %s survived partial evaluation" p
  | Expr.Meta_shape (p, _) -> err "Meta_shape %s survived partial evaluation" p

and eval_unop env op a =
  let v = eval env a in
  match op, v with
  | Expr.Neg, Vi i -> Vi (-i)
  | Expr.Neg, Vf f -> Vf (-.f)
  | Expr.Not, v -> Vb (not (as_b v))
  | Expr.Abs, Vi i -> Vi (abs i)
  | Expr.Abs, Vf f -> Vf (Float.abs f)
  | Expr.Sqrt, v -> Vf (sqrt (as_f v))
  | Expr.Exp, v -> Vf (exp (as_f v))
  | Expr.Ln, v -> Vf (log (as_f v))
  | Expr.Sigmoid, v -> Vf (1.0 /. (1.0 +. exp (-.as_f v)))
  | Expr.Tanh, v -> Vf (tanh (as_f v))
  | Expr.Floor_op, v -> Vf (floor (as_f v))
  | Expr.Ceil_op, v -> Vf (ceil (as_f v))
  | Expr.Square, Vi i -> Vi (i * i)
  | Expr.Square, Vf f -> Vf (f *. f)
  | (Expr.Neg | Expr.Abs | Expr.Square), Vb _ -> err "bool arithmetic"

and eval_binop env op a b =
  let va = eval env a in
  (* short-circuit logicals *)
  match op with
  | Expr.L_and -> if as_b va then Vb (as_b (eval env b)) else Vb false
  | Expr.L_or -> if as_b va then Vb true else Vb (as_b (eval env b))
  | _ -> (
    let vb = eval env b in
    let arith fi ff =
      match va, vb with
      | Vi x, Vi y -> Vi (fi x y)
      | _ -> Vf (ff (as_f va) (as_f vb))
    in
    let compare_vals fi ff =
      match va, vb with
      | Vi x, Vi y -> Vb (fi x y)
      | _ -> Vb (ff (as_f va) (as_f vb))
    in
    match op with
    | Expr.Add -> arith ( + ) ( +. )
    | Expr.Sub -> arith ( - ) ( -. )
    | Expr.Mul -> arith ( * ) ( *. )
    | Expr.Div -> Vf (as_f va /. as_f vb)
    | Expr.Floor_div -> Vi (Expr.ifloor_div (as_i va) (as_i vb))
    | Expr.Mod -> Vi (Expr.imod (as_i va) (as_i vb))
    | Expr.Min -> arith min Float.min
    | Expr.Max -> arith max Float.max
    | Expr.Pow -> Vf (Float.pow (as_f va) (as_f vb))
    | Expr.Eq -> compare_vals ( = ) ( = )
    | Expr.Ne -> compare_vals ( <> ) ( <> )
    | Expr.Lt -> compare_vals ( < ) ( < )
    | Expr.Le -> compare_vals ( <= ) ( <= )
    | Expr.Gt -> compare_vals ( > ) ( > )
    | Expr.Ge -> compare_vals ( >= ) ( >= )
    | Expr.L_and | Expr.L_or -> assert false)

let apply_reduce op cur v =
  match op with
  | Types.R_add -> cur +. v
  | Types.R_mul -> cur *. v
  | Types.R_min -> Float.min cur v
  | Types.R_max -> Float.max cur v

(* Supervision wrapper: mirror the cost model's kernel segmentation
   (every host-level non-Var_def statement is one kernel) and fire
   [Machine.on_kernel] at each boundary; a kernel rooted at a For
   additionally polls the cancellation/deadline token once per
   iteration of that outermost loop.  [exec_node] below is the actual
   interpreter. *)
let rec exec env (s : Stmt.t) : unit =
  if not env.sup_host then exec_node env s
  else
    match s.node with
    | Stmt.Nop | Stmt.Seq _ | Stmt.Var_def _ -> exec_node env s
    | _ ->
      Ft_machine.Machine.on_kernel ();
      env.sup_host <- false;
      env.sup_poll <- (match s.node with Stmt.For _ -> true | _ -> false);
      Fun.protect
        ~finally:(fun () ->
          env.sup_host <- true;
          env.sup_poll <- false)
        (fun () -> exec_node env s)

and exec_node env (s : Stmt.t) : unit =
  (match env.guard with
   | Some g -> g.gi_stmt <- Some s
   | None -> ());
  (match env.prof with
   | Some p ->
     env.pcur <-
       (match s.node with
        (* Eval statements are elided by the compiled executor; neither
           executor counts them so observed counters stay comparable *)
        | Stmt.Eval _ -> None
        | _ -> Some (Profile.ctr p s.sid))
   | None -> ());
  match s.node with
  | Stmt.Nop -> ()
  | Stmt.Store { s_var; s_indices; s_value } ->
    let t = tensor env s_var in
    let idx = Array.of_list (List.map (fun e -> as_i (eval env e)) s_indices) in
    let v = eval env s_value in
    (match env.pcur with
     | Some c -> record_access Profile.record_write env c s_var t
     | None -> ());
    if env.san <> None then san_access env s_var t idx `Store;
    (match env.guard with
     | None ->
       if Types.is_float (Tensor.dtype t) then Tensor.set_f t idx (as_f v)
       else Tensor.set_i t idx (as_i v)
     | Some g ->
       (* Fault order matches the unguarded interpreter: indices and
          value are fully evaluated before any bounds fault fires. *)
       let off = guard_offset env g ~access:Diag.Acc_store s_var t idx in
       if Types.is_float (Tensor.dtype t) then begin
         let x = as_f v in
         (* a literal constant stored value (e.g. the -inf identity of a
            max-reduction) is intentional, not poison *)
         if not (Expr.is_constant s_value) then
           guard_finite env g ~access:Diag.Acc_store ~name:s_var ~idx x;
         guard_mark g s_var off;
         Tensor.set_flat_f t off x
       end
       else begin
         guard_mark g s_var off;
         Tensor.set_flat_i t off (as_i v)
       end)
  | Stmt.Reduce_to { r_var; r_indices; r_op; r_value; r_atomic } ->
    let t = tensor env r_var in
    let idx = Array.of_list (List.map (fun e -> as_i (eval env e)) r_indices) in
    let v = as_f (eval env r_value) in
    (match env.pcur with
     | Some c ->
       record_access Profile.record_read env c r_var t;
       Profile.bump_reduce ~atomic:r_atomic c r_op;
       record_access Profile.record_write env c r_var t
     | None -> ());
    if env.san <> None then san_access env r_var t idx (`Reduce r_op);
    (match env.guard with
     | None ->
       if Types.is_float (Tensor.dtype t) then
         Tensor.set_f t idx (apply_reduce r_op (Tensor.get_f t idx) v)
       else
         Tensor.set_i t idx
           (int_of_float
              (apply_reduce r_op (float_of_int (Tensor.get_i t idx)) v))
     | Some g ->
       let off = guard_offset env g ~access:Diag.Acc_reduce r_var t idx in
       if Types.is_float (Tensor.dtype t) && not (Expr.is_constant r_value)
       then guard_finite env g ~access:Diag.Acc_reduce ~name:r_var ~idx v;
       guard_uninit env g ~name:r_var t ~off ~idx;
       guard_mark g r_var off;
       if Types.is_float (Tensor.dtype t) then
         Tensor.set_flat_f t off (apply_reduce r_op (Tensor.get_flat_f t off) v)
       else
         Tensor.set_flat_i t off
           (int_of_float
              (apply_reduce r_op (float_of_int (Tensor.get_flat_i t off)) v)))
  | Stmt.Var_def d ->
    let dims =
      Array.of_list (List.map (fun e -> as_i (eval env e)) d.d_shape)
    in
    let t = Tensor.create d.d_dtype dims in
    let saved = Hashtbl.find_opt env.tensors d.d_name in
    let saved_mt = Hashtbl.find_opt env.mtypes d.d_name in
    Hashtbl.replace env.tensors d.d_name t;
    (match env.prof with
     | Some p ->
       Hashtbl.replace env.mtypes d.d_name d.d_mtype;
       Profile.alloc p (Tensor.byte_size t)
     | None -> ());
    (match env.guard with
     | Some g ->
       Hashtbl.add g.gi_shadows d.d_name
         (Bytes.make (max 1 (Tensor.numel t)) '\000')
     | None -> ());
    san_def_enter env d.d_name;
    exec env d.d_body;
    san_def_exit env d.d_name;
    (match env.guard with
     | Some g -> Hashtbl.remove g.gi_shadows d.d_name
     | None -> ());
    (match env.prof with
     | Some p ->
       Profile.release p (Tensor.byte_size t);
       (match saved_mt with
        | Some m -> Hashtbl.replace env.mtypes d.d_name m
        | None -> Hashtbl.remove env.mtypes d.d_name)
     | None -> ());
    (match saved with
     | Some old -> Hashtbl.replace env.tensors d.d_name old
     | None -> Hashtbl.remove env.tensors d.d_name);
    Tensor.arena_free t
  | Stmt.For f ->
    let poll = env.sup_poll in
    env.sup_poll <- false;
    let myc = env.pcur in
    let b = as_i (eval env f.f_begin) in
    let e = as_i (eval env f.f_end) in
    let st = as_i (eval env f.f_step) in
    if st <= 0 then err "non-positive loop step";
    (match myc with
     | Some c -> c.Profile.entries <- c.Profile.entries + 1
     | None -> ());
    let saved = Hashtbl.find_opt env.scalars f.f_iter in
    (match env.guard with
     | Some g -> g.gi_iters <- f.f_iter :: g.gi_iters
     | None -> ());
    let region =
      match env.san, f.f_property.Stmt.parallel with
      | Some st, Some _ ->
        let rg =
          { sr_sid = s.sid; sr_iter_name = f.f_iter; sr_iter = b;
            sr_locals = Hashtbl.create 8; sr_shadow = Hashtbl.create 64 }
        in
        st.regions <- rg :: st.regions;
        Some (st, rg)
      | _ -> None
    in
    let it = ref b in
    while !it < e do
      if poll then Ft_machine.Machine.poll ();
      (match myc with
       | Some c -> c.Profile.trips <- c.Profile.trips + 1
       | None -> ());
      (match region with
       | Some (_, rg) -> rg.sr_iter <- !it
       | None -> ());
      Hashtbl.replace env.scalars f.f_iter (Vi !it);
      exec env f.f_body;
      it := !it + st
    done;
    (match region with
     | Some (st, _) -> st.regions <- List.tl st.regions
     | None -> ());
    (match env.guard with
     | Some g -> g.gi_iters <- List.tl g.gi_iters
     | None -> ());
    (match saved with
     | Some v -> Hashtbl.replace env.scalars f.f_iter v
     | None -> Hashtbl.remove env.scalars f.f_iter)
  | Stmt.If i ->
    if as_b (eval env i.i_cond) then exec env i.i_then
    else (match i.i_else with Some e -> exec env e | None -> ())
  | Stmt.Assert_stmt (c, b) ->
    if not (as_b (eval env c)) then
      err "assertion failed: %s" (Expr.to_string c);
    exec env b
  | Stmt.Seq ss -> List.iter (exec env) ss
  | Stmt.Eval e -> ignore (eval env e)
  | Stmt.Lib_call { body; _ } -> exec env body
  | Stmt.Microkernel { body; _ } -> exec env body
  | Stmt.Call { callee; _ } ->
    err "call to %s survived inlining; run partial evaluation first" callee

(* Host-level walk used only when profiling: mirrors the cost model's
   kernel segmentation (every top-level non-Var_def statement outside a
   loop is one kernel). *)
let rec exec_host p env (s : Stmt.t) : unit =
  match s.Stmt.node with
  | Stmt.Nop -> ()
  | Stmt.Seq ss -> List.iter (exec_host p env) ss
  | Stmt.Var_def d ->
    env.pcur <- Some (Profile.ctr p s.Stmt.sid);
    let dims =
      Array.of_list (List.map (fun e -> as_i (eval env e)) d.d_shape)
    in
    let t = Tensor.create d.d_dtype dims in
    let saved = Hashtbl.find_opt env.tensors d.d_name in
    let saved_mt = Hashtbl.find_opt env.mtypes d.d_name in
    Hashtbl.replace env.tensors d.d_name t;
    Hashtbl.replace env.mtypes d.d_name d.d_mtype;
    Profile.alloc p (Tensor.byte_size t);
    exec_host p env d.d_body;
    Profile.release p (Tensor.byte_size t);
    (match saved_mt with
     | Some m -> Hashtbl.replace env.mtypes d.d_name m
     | None -> Hashtbl.remove env.mtypes d.d_name);
    (match saved with
     | Some old -> Hashtbl.replace env.tensors d.d_name old
     | None -> Hashtbl.remove env.tensors d.d_name);
    Tensor.arena_free t
  | _ ->
    if env.sup then begin
      Ft_machine.Machine.on_kernel ();
      env.sup_poll <- (match s.Stmt.node with Stmt.For _ -> true | _ -> false)
    end;
    Profile.enter_kernel p s;
    exec env s;
    Profile.exit_kernel p

(* Declared static shape of a parameter, when every dimension folds at
   compile time.  Uses the shared {!Expr.static_int} so the interpreter
   and the compiled executor agree on what is checkable. *)
let static_param_shape (p : Stmt.param) =
  match p.Stmt.p_shape with
  | Stmt.Any_dim -> None
  | Stmt.Fixed dims ->
    let rec go acc = function
      | [] -> Some (Array.of_list (List.rev acc))
      | e :: rest -> (
        match Expr.static_int e with
        | Some n -> go (n :: acc) rest
        | None -> None)
    in
    go [] dims

let entry_err d = raise (Interp_error (Diag.to_string d))

let run_func_env ?(sizes = []) ?profile ?sanitize ?(guard = false)
    (fn : Stmt.func) (args : (string * Tensor.t) list) : env =
  let env =
    make_env ?profile ?sanitize
      ?guard_fn:(if guard then Some fn.fn_name else None)
      ()
  in
  List.iter (fun (n, v) -> Hashtbl.replace env.scalars n (Vi v)) sizes;
  if guard then
    List.iter
      (fun (n, _) ->
        if
          not
            (List.exists
               (fun (p : Stmt.param) -> p.Stmt.p_name = n)
               fn.fn_params)
        then entry_err (Diag.unknown_arg ~fn:fn.fn_name n))
      args;
  List.iter
    (fun (p : Stmt.param) ->
      match List.assoc_opt p.p_name args with
      | Some t ->
        (if guard then
           match static_param_shape p with
           | Some declared when declared <> Tensor.shape t ->
             entry_err
               (Diag.arg_shape ~fn:fn.fn_name p.p_name ~declared
                  ~got:(Tensor.shape t))
           | _ -> ());
        Hashtbl.replace env.tensors p.p_name t
      | None -> entry_err (Diag.missing_arg ~fn:fn.fn_name p.p_name))
    fn.fn_params;
  (match profile with
   | None -> exec env fn.fn_body
   | Some p ->
     List.iter
       (fun (pa : Stmt.param) ->
         Hashtbl.replace env.mtypes pa.p_name pa.p_mtype)
       fn.fn_params;
     let base =
       List.fold_left
         (fun acc (pa : Stmt.param) ->
           match List.assoc_opt pa.p_name args with
           | Some t -> acc + Tensor.byte_size t
           | None -> acc)
         0 fn.fn_params
     in
     Profile.alloc p base;
     exec_host p env fn.fn_body;
     Profile.release p base);
  env

(** Run a function: [sizes] binds free size parameters appearing in shapes
    and bounds; [args] binds every tensor parameter by name.  Parameters
    with [Output]/[Inout] access are mutated in place.  With [?profile]
    every executed operation and host-level kernel is counted.  With
    [~sanitize:true] the dynamic race sanitizer shadow-tracks accesses
    inside parallel-annotated loops and raises {!Race_detected} after the
    run if any cross-iteration racing pair was observed. *)
let run_func ?(sizes = []) ?profile ?(sanitize = false) ?(guard = false)
    (fn : Stmt.func) (args : (string * Tensor.t) list) : unit =
  let env = run_func_env ~sizes ?profile ~sanitize ~guard fn args in
  match env.san with
  | Some st when st.nraces > 0 ->
    let shown = List.rev st.races in
    let suffix =
      if st.nraces > san_race_cap then
        Printf.sprintf "\n... and %d more" (st.nraces - san_race_cap)
      else ""
    in
    raise
      (Race_detected
         (Printf.sprintf "%d race(s) in %s:\n%s%s" st.nraces fn.fn_name
            (String.concat "\n" (List.map race_to_string shown))
            suffix))
  | _ -> ()

(** Like [run_func ~sanitize:true] but returns the observed races
    (earliest first, capped) instead of raising. *)
let sanitize_func ?(sizes = []) (fn : Stmt.func)
    (args : (string * Tensor.t) list) : race list =
  let env = run_func_env ~sizes ~sanitize:true fn args in
  match env.san with
  | Some st -> List.rev st.races
  | None -> []

(** Run a bare statement with given bindings (tests).  Under [?profile]
    bound tensors are treated as DRAM-resident, like parameters. *)
let run_stmt ?(sizes = []) ?profile (s : Stmt.t)
    (tensors : (string * Tensor.t) list) : unit =
  let env = make_env ?profile () in
  List.iter (fun (n, v) -> Hashtbl.replace env.scalars n (Vi v)) sizes;
  List.iter (fun (n, t) -> Hashtbl.replace env.tensors n t) tensors;
  match profile with
  | None -> exec env s
  | Some p ->
    List.iter
      (fun (n, _) -> Hashtbl.replace env.mtypes n Types.Cpu_heap)
      tensors;
    let base =
      List.fold_left (fun acc (_, t) -> acc + Tensor.byte_size t) 0 tensors
    in
    Profile.alloc p base;
    exec_host p env s;
    Profile.release p base

(** Evaluate a closed integer expression under size bindings — used to
    materialize symbolic shapes (e.g. tape extents) into concrete dims. *)
let eval_static ?(sizes = []) (e : Expr.t) : int =
  let env = make_env () in
  List.iter (fun (n, v) -> Hashtbl.replace env.scalars n (Vi v)) sizes;
  as_i (eval env e)

(** Concrete dims of a parameter under size bindings. *)
let param_dims ?(sizes = []) (p : Stmt.param) : int array =
  match p.Stmt.p_shape with
  | Stmt.Fixed es -> Array.of_list (List.map (eval_static ~sizes) es)
  | Stmt.Any_dim -> err "param %s has no fixed shape" p.Stmt.p_name
