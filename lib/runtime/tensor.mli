(** Dense tensor values: the runtime data representation shared by the
    FreeTensor interpreter/executors and every baseline framework, so all
    implementations of a workload can be compared element-for-element.
    Data is stored row-major; float dtypes share a [float array] buffer,
    integer dtypes an [int array] (bools as 0/1). *)

open Ft_ir

type t

(** {1 Faults}

    Every precondition violation raises [Fault] with a structured payload
    instead of a formatted string, so guarded executors can wrap the
    failure into a {!Ft_ir.Diag.t} with provenance (statement id,
    iteration vector) while the raw exception still prints on its own. *)

type fault =
  | Rank_mismatch of {
      shape : int array;
      dtype : Types.dtype;
      index : int array;
    }
  | Out_of_bounds of {
      shape : int array;
      dtype : Types.dtype;
      index : int array;
      dim : int;  (** first violating dimension *)
    }
  | Not_scalar of { op : string; shape : int array }
  | Size_mismatch of { op : string; expected : int; got : int }
  | Shape_mismatch of { op : string; a : int array; b : int array }

exception Fault of fault

val fault_to_string : fault -> string

(** {1 Creation} *)

(** Fresh zero-filled tensor of the given dtype and shape. *)
val create : Types.dtype -> int array -> t

(** Alias of {!create}. *)
val zeros : Types.dtype -> int array -> t

(** 0-D tensors holding one value. *)
val scalar_f : Types.dtype -> float -> t

val scalar_i : Types.dtype -> int -> t

(** Build from flat row-major data; raises on size mismatch. *)
val of_float_array : Types.dtype -> int array -> float array -> t

val of_int_array : Types.dtype -> int array -> int array -> t

(** Deterministic pseudo-random tensors (reproducible experiments). *)
val rand : ?seed:int -> ?lo:float -> ?hi:float -> Types.dtype -> int array -> t

val randint : ?seed:int -> lo:int -> hi:int -> Types.dtype -> int array -> t

val copy : t -> t

(** [copy_into ~src ~dst] overwrites [dst]'s buffer with [src]'s
    contents (same shape and dtype; raises [Fault Shape_mismatch]
    otherwise).  The supervisor uses it to roll mutated arguments back
    to their pre-attempt snapshot before a retry. *)
val copy_into : src:t -> dst:t -> unit

(** {1 Memory budget}

    Per-run allocation arena for the execution supervisor and the
    serving layer, as a *scoped context*: {!install_budget} mints a
    handle with its own live counter, and only the installed handle can
    be released.  While a budget is installed, every {!create} charges
    the arena and raises {!Ft_ir.Diag.Diag_error} (code [Oom], a
    [Resource] fault) if the live total would exceed the cap; executors
    release loop-local tensors with {!arena_free} when their [Var_def]
    scope exits.  With no budget installed, {!create}, {!arena_free} and
    {!live_bytes} are a single domain-local read.

    Budgets do not nest blindly: installing while one is active raises
    [Invalid_argument] instead of silently zeroing the enclosing scope's
    live accounting — unless the enclosing scope is passed as [?parent],
    which *chains* the handles: charges then hit the child's counter AND
    every ancestor's cap, so a batch group can bound its aggregate
    footprint while each request keeps its own per-request accounting.

    The installed scope is per-domain ([Domain.DLS]); concurrent
    requests on separate domains are isolated by construction.  The
    parallel executor adopts the caller's scope onto worker domains for
    the duration of a chunk, so chunk-local allocations keep charging
    the caller's budget; the live counters are atomic for exactly that
    reason. *)

(** A budget scope handle.  Identity matters: only the handle returned
    by the active {!install_budget} can release it. *)
type budget

(** Install a budget of [cap] bytes with a fresh live counter; [fn]
    names the function for diagnostics.  Raises [Invalid_argument] if a
    budget is already installed, unless that installed budget is given
    as [?parent] — then the new budget chains under it (charges bubble
    up the chain) and releasing restores the parent as the installed
    scope. *)
val install_budget : ?fn:string -> ?parent:budget -> int -> budget

(** Release the installed budget.  Raises [Invalid_argument] when [b]
    is not the currently installed handle (stale or foreign handles
    cannot release someone else's scope). *)
val release_budget : budget -> unit

val budget_active : unit -> bool

(** The budget installed on the calling domain, if any — pass it as
    [?parent] to chain a per-request child under a shared cap. *)
val current_budget : unit -> budget option

(** [with_budget ?fn cap f] — install around [f], releasing on any
    exit. *)
val with_budget : ?fn:string -> int -> (unit -> 'a) -> 'a

(** [with_adopted b f] runs [f] with [b] as the calling domain's
    installed scope, restoring the previous scope on any exit.  Used by
    the parallel executor to propagate the master's budget onto worker
    domains, and by the serving layer to share one batch-group parent
    cap across the domains executing its members.  Adoption does not
    mint or release anything — the handle's counters are shared. *)
val with_adopted : budget option -> (unit -> 'a) -> 'a

(** Run [f] with the installed budget (if any) suspended — the
    supervisor's interpreter fallback is the unbudgeted host-side last
    resort and must serve even under a serving-layer batch budget.
    Per-domain; restores the scope on any exit. *)
val unbudgeted : (unit -> 'a) -> 'a

(** Live bytes of the installed scope (0 when none is installed). *)
val live_bytes : unit -> int

(** Re-arm a buffer that is reused across scope entries instead of
    re-created: charge the installed budget and zero it, exactly as
    {!create} does a fresh tensor. *)
val recycle : t -> unit

(** Credit a tensor's bytes back to the arena (scope exit). *)
val arena_free : t -> unit

(** {1 Metadata} *)

val numel : t -> int
val ndim : t -> int

(** A copy of the shape. *)
val shape : t -> int array

val dtype : t -> Types.dtype

(** Bytes occupied, for memory-footprint accounting. *)
val byte_size : t -> int

(** Row-major strides in elements (not a copy; do not mutate). *)
val strides : t -> int array

(** The shape without a copy (do not mutate) — for guard hot paths. *)
val dims : t -> int array

(** {1 Element access} *)

(** Flat offset of a multi-index; raises on rank or bound violation. *)
val flat_index : t -> int array -> int

val get_f : t -> int array -> float
val set_f : t -> int array -> float -> unit
val get_i : t -> int array -> int
val set_i : t -> int array -> int -> unit

(** Flat accessors (bounds-checked by the array access). *)
val get_flat_f : t -> int -> float

val set_flat_f : t -> int -> float -> unit
val get_flat_i : t -> int -> int
val set_flat_i : t -> int -> int -> unit

(** Unchecked flat accessors for compiled executors. *)
val unsafe_get_f : t -> int -> float

val unsafe_set_f : t -> int -> float -> unit
val unsafe_get_i : t -> int -> int
val unsafe_set_i : t -> int -> int -> unit

(** The raw buffers without a copy — for compiled code and microkernels
    looping over flat arrays.  [[||]] for the kind the tensor is not
    buffered as (floats for integer dtypes, and vice versa). *)
val float_buf : t -> float array

val int_buf : t -> int array

(** Value of a one-element tensor. *)
val to_scalar_f : t -> float

(** {1 Bulk operations} *)

val fill_f : t -> float -> unit
val to_float_array : t -> float array
val to_int_array : t -> int array

(** Elementwise map / zip (same shapes). *)
val map_f : (float -> float) -> t -> t

val map2_f : (float -> float -> float) -> t -> t -> t

(** {1 Comparison and printing} *)

(** Maximum absolute elementwise difference; raises on shape mismatch. *)
val max_abs_diff : t -> t -> float

(** [all_close ?tol a b] — true when {!max_abs_diff} is within [tol]
    (default [1e-4]). *)
val all_close : ?tol:float -> t -> t -> bool

(** Short human-readable rendering (first [max_elems] elements). *)
val to_string : ?max_elems:int -> t -> string
