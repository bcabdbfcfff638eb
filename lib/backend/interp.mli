(** Reference interpreter for the FreeTensor IR — the semantic ground
    truth.  Every transformation (schedules, AD, auto-scheduling,
    lowering) must leave programs that this interpreter evaluates to the
    same outputs; the faster {!Compile_exec} is cross-checked against it
    in the test suite.  Parallel annotations are ignored (sequential
    execution of a correctly-scheduled program is semantics-preserving). *)

open Ft_ir
open Ft_runtime

exception Interp_error of string

(** {1 Dynamic race sanitizer}

    ThreadSanitizer-style shadow tracking for parallel-annotated loops:
    while (sequentially) executing inside an annotated loop, every tensor
    element remembers which iteration last stored, read, or reduced
    (per reduce op) it; any cross-iteration pair with a non-commuting
    write is a race.  Read/read and same-op reduce/reduce pairs commute
    and are not flagged.  Exact on the executed trace — a complement to
    the conservative static verifier {!Ft_analyze.Race}. *)

type race = {
  race_tensor : string;
  race_offset : int;      (** flat element offset *)
  race_loop : int;        (** sid of the parallel-annotated [For] *)
  race_iter : string;     (** its iterator name *)
  race_kind : string;     (** e.g. ["store/store"], ["reduce(+)/reduce(max)"] *)
  race_iter_a : int;      (** earlier-observed iteration *)
  race_iter_b : int;      (** current iteration *)
}

exception Race_detected of string

val race_to_string : race -> string

(** Run a function.  [sizes] binds free size parameters appearing in
    shapes and bounds; [args] binds every tensor parameter by name.
    [Output]/[Inout] parameters are mutated in place.

    [profile] turns on observed-counter collection: every executed
    operation, tensor access, loop trip and host-level kernel is counted
    into the given {!Ft_profile.Profile.t} (see its documentation for the
    counting conventions).  To profile the code {!Compile_exec} serves,
    pass the tree it compiled ([cd_fn]).

    [sanitize:true] turns on the dynamic race sanitizer; if any race is
    observed, {!Race_detected} is raised after the run completes (outputs
    are still the sequential-semantics values).

    [guard:true] turns on the memory sanitizer: every access is
    bounds-checked, loads from [Var_def] locals are checked against a
    per-tensor init bitmap, and float stores/reduce operands are checked
    for NaN poison (+/-inf is a legitimate IEEE sentinel — softmax-style
    masking stores -inf — and literal constant initializers are exempt
    entirely).  The first fault raises {!Ft_ir.Diag.Diag_error}
    with the statement id, the enclosing iteration vector and the
    concrete index.  Argument binding is also strict under guard
    (unknown arguments and statically-checkable shape mismatches raise
    [Interp_error] with the canonical {!Ft_ir.Diag} message, identical
    to the compiled executor's). *)
val run_func :
  ?sizes:(string * int) list ->
  ?profile:Ft_profile.Profile.t ->
  ?sanitize:bool ->
  ?guard:bool ->
  Stmt.func ->
  (string * Tensor.t) list ->
  unit

(** Like [run_func ~sanitize:true] but returns the observed races
    (earliest first, capped at an internal limit) instead of raising. *)
val sanitize_func :
  ?sizes:(string * int) list ->
  Stmt.func ->
  (string * Tensor.t) list ->
  race list

(** Run a bare statement with the given bindings (for tests).  Under
    [?profile], bound tensors are treated as DRAM-resident. *)
val run_stmt :
  ?sizes:(string * int) list ->
  ?profile:Ft_profile.Profile.t ->
  Stmt.t ->
  (string * Tensor.t) list ->
  unit

(** Evaluate a closed integer expression under size bindings — used to
    materialize symbolic shapes (e.g. tape extents) into concrete dims. *)
val eval_static : ?sizes:(string * int) list -> Expr.t -> int

(** Concrete dims of a parameter under size bindings. *)
val param_dims : ?sizes:(string * int) list -> Stmt.param -> int array
