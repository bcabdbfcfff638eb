(** Dense tensor values: the runtime data representation shared by the
    FreeTensor interpreter/executor and every baseline framework, so that
    all implementations of a workload can be compared element-for-element.

    Data is stored row-major in a flat buffer.  Float dtypes share a
    [float array] buffer; integer dtypes an [int array]; bools are stored
    as ints 0/1. *)

open Ft_ir

type buffer =
  | Fbuf of float array
  | Ibuf of int array

type t = {
  shape : int array;
  strides : int array; (* row-major, in elements *)
  dtype : Types.dtype;
  buf : buffer;
}

(* Structured access faults: executors wrap these into a Diag.t with
   provenance (statement id, iteration vector) under guarded execution;
   the raw exception still carries everything needed to understand the
   failure on its own. *)
type fault =
  | Rank_mismatch of { shape : int array; dtype : Types.dtype; index : int array }
  | Out_of_bounds of {
      shape : int array;
      dtype : Types.dtype;
      index : int array;
      dim : int;
    }
  | Not_scalar of { op : string; shape : int array }
  | Size_mismatch of { op : string; expected : int; got : int }
  | Shape_mismatch of { op : string; a : int array; b : int array }

exception Fault of fault

let ints_to_string a =
  String.concat "," (Array.to_list (Array.map string_of_int a))

let fault_to_string = function
  | Rank_mismatch { shape; dtype; index } ->
    Printf.sprintf "Tensor: rank %d index [%s] on rank %d tensor (shape [%s], %s)"
      (Array.length index) (ints_to_string index) (Array.length shape)
      (ints_to_string shape)
      (Types.dtype_to_string dtype)
  | Out_of_bounds { shape; dtype; index; dim } ->
    Printf.sprintf
      "Tensor: index %d not in [0, %d) at dim %d (index [%s], shape [%s], %s)"
      index.(dim) shape.(dim) dim (ints_to_string index)
      (ints_to_string shape)
      (Types.dtype_to_string dtype)
  | Not_scalar { op; shape } ->
    Printf.sprintf "Tensor.%s: not a scalar (shape [%s])" op
      (ints_to_string shape)
  | Size_mismatch { op; expected; got } ->
    Printf.sprintf "Tensor.%s: %d data elements for a shape of %d" op got
      expected
  | Shape_mismatch { op; a; b } ->
    Printf.sprintf "Tensor.%s: shape [%s] vs [%s]" op (ints_to_string a)
      (ints_to_string b)

let () =
  Printexc.register_printer (function
    | Fault f -> Some (fault_to_string f)
    | _ -> None)

let numel_of_shape shape = Array.fold_left ( * ) 1 shape

let strides_of_shape shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for k = n - 2 downto 0 do
    strides.(k) <- strides.(k + 1) * shape.(k + 1)
  done;
  strides

(* Per-run allocation arena for the execution supervisor's memory
   budget, as a *scoped context*: installing a budget mints a handle
   carrying its own live counter, and only the handle that is currently
   installed can be released.  Nested installs error instead of silently
   zeroing the live-bytes accounting of allocations still outstanding
   under the enclosing scope — UNLESS the enclosing scope is named as
   the new budget's [?parent], which chains the handles: a request's
   allocations then charge its own counter AND the shared parent cap, so
   batch groups can bound their aggregate footprint while each request
   keeps per-request accounting.

   The installed scope is per-domain ([Domain.DLS]): concurrent requests
   on separate domains each see only their own budget.  The parallel
   executor adopts the master's scope onto worker domains for the
   duration of a chunk ([with_adopted]), so loop-local allocations in
   parallel chunks keep charging the master's budget; [live] counters
   are atomic for exactly that reason.  Without a budget installed,
   [create] and [arena_free] cost one DLS read. *)
type budget = {
  bg_cap : int;
  bg_fn : string;
  bg_live : int Atomic.t;
  bg_parent : budget option;
}

let scope : budget option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install_budget ?(fn = "run") ?parent cap =
  let cur = Domain.DLS.get scope in
  match cur, parent with
  | Some cur, Some p when cur == p ->
    let b = { bg_cap = cap; bg_fn = fn; bg_live = Atomic.make 0;
              bg_parent = Some p } in
    Domain.DLS.set scope (Some b);
    b
  | Some cur, _ ->
    invalid_arg
      (Printf.sprintf
         "Tensor.install_budget(%s): a budget is already installed \
          (fn=%s, %d bytes, %d live) — budgets are scoped, not stacked \
          (pass it as ~parent to chain a per-request child under it)"
         fn cur.bg_fn cur.bg_cap (Atomic.get cur.bg_live))
  | None, Some _ ->
    invalid_arg
      (Printf.sprintf
         "Tensor.install_budget(%s): ~parent is not the installed budget"
         fn)
  | None, None ->
    let b = { bg_cap = cap; bg_fn = fn; bg_live = Atomic.make 0;
              bg_parent = None } in
    Domain.DLS.set scope (Some b);
    b

let release_budget b =
  match Domain.DLS.get scope with
  | Some cur when cur == b -> Domain.DLS.set scope b.bg_parent
  | Some _ ->
    invalid_arg
      "Tensor.release_budget: handle is not the installed budget"
  | None -> invalid_arg "Tensor.release_budget: no budget installed"

let budget_active () = Domain.DLS.get scope <> None
let current_budget () = Domain.DLS.get scope

let with_budget ?fn cap f =
  let b = install_budget ?fn cap in
  Fun.protect ~finally:(fun () -> release_budget b) f

(* Adopt an already-minted scope (possibly [None]) on the calling domain
   for the duration of [f] — how worker domains inherit the master's
   budget during a parallel region, and how batch-group jobs inherit the
   shared parent cap. *)
let with_adopted b f =
  let saved = Domain.DLS.get scope in
  Domain.DLS.set scope b;
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope saved) f

(* Escape hatch for the supervisor's interpreter fallback: the budget
   models device memory, and the interpreter is the unbudgeted host-side
   last resort — it must be able to serve even under a serving-layer
   batch budget.  Per-domain (like install/release). *)
let unbudgeted f = with_adopted None f

let live_bytes () =
  match Domain.DLS.get scope with
  | None -> 0
  | Some b -> Atomic.get b.bg_live

let buf_bytes dtype n = n * Types.dtype_size dtype

(* Charge [bytes] to [b] and every ancestor; on overflow anywhere in the
   chain, credit back the levels already charged so a fallback attempt
   under the same budgets starts from an honest counter.  Each level
   reserves with a compare-and-set loop, so no domain ever observes a
   counter above its cap (an add-then-roll-back would expose the
   overshoot, and refuse a concurrent neighbour's honest charge). *)
let rec reserve b bytes =
  let before = Atomic.get b.bg_live in
  if before + bytes > b.bg_cap then
    raise
      (Ft_ir.Diag.Diag_error
         (Ft_ir.Diag.oom_budget ~fn:b.bg_fn ~requested:bytes ~live:before
            ~budget:b.bg_cap))
  else if not (Atomic.compare_and_set b.bg_live before (before + bytes)) then
    reserve b bytes

let rec charge_chain b bytes =
  reserve b bytes;
  match b.bg_parent with
  | None -> ()
  | Some p ->
    (try charge_chain p bytes
     with e ->
       ignore (Atomic.fetch_and_add b.bg_live (-bytes));
       raise e)

let charge dtype shape =
  match Domain.DLS.get scope with
  | None -> ()
  | Some b -> charge_chain b (buf_bytes dtype (numel_of_shape shape))

let create dtype shape =
  charge dtype shape;
  let n = numel_of_shape shape in
  let buf =
    if Types.is_float dtype then Fbuf (Array.make n 0.0)
    else Ibuf (Array.make n 0)
  in
  { shape; strides = strides_of_shape shape; dtype; buf }

(* Re-arm a buffer reused across scope entries: charge and zero it
   exactly as [create] does a fresh one. *)
let recycle t =
  charge t.dtype t.shape;
  match t.buf with
  | Fbuf a -> Array.fill a 0 (Array.length a) 0.0
  | Ibuf a -> Array.fill a 0 (Array.length a) 0

let arena_free t =
  match Domain.DLS.get scope with
  | None -> ()
  | Some b ->
    let bytes = buf_bytes t.dtype (numel_of_shape t.shape) in
    let rec credit b =
      ignore (Atomic.fetch_and_add b.bg_live (-bytes));
      Option.iter credit b.bg_parent
    in
    credit b

let zeros = create

let numel t = numel_of_shape t.shape
let ndim t = Array.length t.shape
let shape t = Array.copy t.shape
let dtype t = t.dtype

(** Bytes occupied, for memory-footprint accounting. *)
let byte_size t = numel t * Types.dtype_size t.dtype

let flat_index t idx =
  let n = Array.length idx in
  if n <> Array.length t.shape then
    raise
      (Fault
         (Rank_mismatch
            { shape = Array.copy t.shape; dtype = t.dtype;
              index = Array.copy idx }));
  let off = ref 0 in
  for k = 0 to n - 1 do
    let i = idx.(k) in
    if i < 0 || i >= t.shape.(k) then
      raise
        (Fault
           (Out_of_bounds
              { shape = Array.copy t.shape; dtype = t.dtype;
                index = Array.copy idx; dim = k }));
    off := !off + (i * t.strides.(k))
  done;
  !off

(* Raw flat accessors *)

let get_flat_f t k =
  match t.buf with
  | Fbuf a -> a.(k)
  | Ibuf a -> float_of_int a.(k)

let set_flat_f t k v =
  match t.buf with
  | Fbuf a -> a.(k) <- v
  | Ibuf a -> a.(k) <- int_of_float v

let get_flat_i t k =
  match t.buf with
  | Ibuf a -> a.(k)
  | Fbuf a -> int_of_float a.(k)

let set_flat_i t k v =
  match t.buf with
  | Ibuf a -> a.(k) <- v
  | Fbuf a -> a.(k) <- float_of_int v

(* Multi-index accessors *)

let get_f t idx = get_flat_f t (flat_index t idx)
let set_f t idx v = set_flat_f t (flat_index t idx) v
let get_i t idx = get_flat_i t (flat_index t idx)
let set_i t idx v = set_flat_i t (flat_index t idx) v

(** Scalar (0-D) helpers. *)
let scalar_f dtype v =
  let t = create dtype [||] in
  set_flat_f t 0 v;
  t

let scalar_i dtype v =
  let t = create dtype [||] in
  set_flat_i t 0 v;
  t

let to_scalar_f t =
  if numel t <> 1 then
    raise (Fault (Not_scalar { op = "to_scalar_f"; shape = Array.copy t.shape }));
  get_flat_f t 0

let fill_f t v =
  match t.buf with
  | Fbuf a -> Array.fill a 0 (Array.length a) v
  | Ibuf a -> Array.fill a 0 (Array.length a) (int_of_float v)

let copy t =
  let buf =
    match t.buf with
    | Fbuf a -> Fbuf (Array.copy a)
    | Ibuf a -> Ibuf (Array.copy a)
  in
  { t with buf }

(* Restore [dst]'s contents from [src] in place — the supervisor rolls
   mutated arguments back to their pre-attempt snapshot with this, so a
   retry sees bitwise-identical inputs. *)
let copy_into ~src ~dst =
  if src.shape <> dst.shape || src.dtype <> dst.dtype then
    raise
      (Fault
         (Shape_mismatch
            { op = "copy_into"; a = Array.copy src.shape;
              b = Array.copy dst.shape }));
  match (src.buf, dst.buf) with
  | Fbuf a, Fbuf b -> Array.blit a 0 b 0 (Array.length a)
  | Ibuf a, Ibuf b -> Array.blit a 0 b 0 (Array.length a)
  | _ ->
    raise
      (Fault
         (Shape_mismatch
            { op = "copy_into"; a = Array.copy src.shape;
              b = Array.copy dst.shape }))

let of_float_array dtype shape data =
  if Array.length data <> numel_of_shape shape then
    raise
      (Fault
         (Size_mismatch
            { op = "of_float_array"; expected = numel_of_shape shape;
              got = Array.length data }));
  let t = create dtype shape in
  Array.iteri (fun k v -> set_flat_f t k v) data;
  t

let of_int_array dtype shape data =
  if Array.length data <> numel_of_shape shape then
    raise
      (Fault
         (Size_mismatch
            { op = "of_int_array"; expected = numel_of_shape shape;
              got = Array.length data }));
  let t = create dtype shape in
  Array.iteri (fun k v -> set_flat_i t k v) data;
  t

let to_float_array t = Array.init (numel t) (get_flat_f t)
let to_int_array t = Array.init (numel t) (get_flat_i t)

(** Deterministic pseudo-random tensors for reproducible experiments. *)
let rand ?(seed = 42) ?(lo = -1.0) ?(hi = 1.0) dtype shape =
  let st = Random.State.make [| seed; numel_of_shape shape |] in
  let t = create dtype shape in
  for k = 0 to numel t - 1 do
    set_flat_f t k (lo +. Random.State.float st (hi -. lo))
  done;
  t

let randint ?(seed = 42) ~lo ~hi dtype shape =
  let st = Random.State.make [| seed; 7919; numel_of_shape shape |] in
  let t = create dtype shape in
  for k = 0 to numel t - 1 do
    set_flat_i t k (lo + Random.State.int st (hi - lo))
  done;
  t

(** Map / zip for convenience in baselines. *)
let map_f f t =
  let r = create t.dtype t.shape in
  for k = 0 to numel t - 1 do
    set_flat_f r k (f (get_flat_f t k))
  done;
  r

let map2_f f a b =
  if a.shape <> b.shape then
    raise
      (Fault
         (Shape_mismatch
            { op = "map2_f"; a = Array.copy a.shape; b = Array.copy b.shape }));
  let r = create a.dtype a.shape in
  for k = 0 to numel a - 1 do
    set_flat_f r k (f (get_flat_f a k) (get_flat_f b k))
  done;
  r

(** Max absolute difference; used to compare implementations. *)
let max_abs_diff a b =
  if a.shape <> b.shape then
    raise
      (Fault
         (Shape_mismatch
            { op = "max_abs_diff"; a = Array.copy a.shape;
              b = Array.copy b.shape }));
  let m = ref 0.0 in
  for k = 0 to numel a - 1 do
    let d = Float.abs (get_flat_f a k -. get_flat_f b k) in
    if d > !m then m := d
  done;
  !m

let all_close ?(tol = 1e-4) a b = max_abs_diff a b <= tol

let to_string ?(max_elems = 16) t =
  let n = numel t in
  let shown = min n max_elems in
  let elems =
    List.init shown (fun k ->
        if Types.is_float t.dtype then Printf.sprintf "%.4g" (get_flat_f t k)
        else string_of_int (get_flat_i t k))
  in
  Printf.sprintf "tensor<%s>[%s](%s%s)"
    (Types.dtype_to_string t.dtype)
    (String.concat "x" (Array.to_list (Array.map string_of_int t.shape)))
    (String.concat ", " elems)
    (if n > shown then ", ..." else "")

(** Row-major strides (elements); exposed for compiled executors that
    precompute flat offsets instead of building index arrays. *)
let strides t = t.strides

(** The shape without a copy (do not mutate) — the guarded executors
    validate every index against it on the hot path. *)
let dims t = t.shape

(** Unchecked flat accessors for compiled code paths: the compiler has
    already validated ranks, and the flat offset is bounds-checked by the
    array access itself. *)
let unsafe_get_f t k =
  match t.buf with
  | Fbuf a -> Array.unsafe_get a k
  | Ibuf a -> float_of_int (Array.unsafe_get a k)

let unsafe_set_f t k v =
  match t.buf with
  | Fbuf a -> Array.unsafe_set a k v
  | Ibuf a -> Array.unsafe_set a k (int_of_float v)

let unsafe_get_i t k =
  match t.buf with
  | Ibuf a -> Array.unsafe_get a k
  | Fbuf a -> int_of_float (Array.unsafe_get a k)

let unsafe_set_i t k v =
  match t.buf with
  | Ibuf a -> Array.unsafe_set a k v
  | Fbuf a -> Array.unsafe_set a k (float_of_int v)

(** The raw buffers, without a copy, for compiled code that indexes flat
    arrays directly; [[||]] for the kind the tensor is not buffered as. *)
let float_buf t = match t.buf with Fbuf a -> a | Ibuf _ -> [||]
let int_buf t = match t.buf with Ibuf a -> a | Fbuf _ -> [||]
