(** Closure-compiling executor: the fast in-process backend.

    Where {!Interp} walks the AST on every execution, this backend
    compiles a function once into a tree of OCaml closures — names
    resolved lexically to mutable cells, float expressions fused into
    one closure per operator node, dtypes settled statically — and then
    runs the closures.  It plays the role gcc/nvcc play in the paper's
    pipeline for this repository's in-process execution.

    There are two closure paths: the plain (fused) path, which runs the
    {!Ft_lower.Pass}-lowered tree, and the guarded path ([~guard:true]).
    Execution profiles come from {!Interp} alone: to observe the code
    that is served, profile [(compile fn).cd_fn], the tree this module
    actually compiled.

    Two execution-speed layers sit on top of the plain closure walk:
    compile-time access optimization (constant strides for static
    shapes, affine-index folding, and strength-reduced running offsets
    advanced by the enclosing loop) and domain-pool parallel loops (see
    {!compile}'s [parallel] flag and {!Exec_par}). *)

open Ft_ir
open Ft_runtime

exception Exec_error of string

(** Where demotion notices go: one line per parallel loop compiled
    sequentially, with the reason (default: stderr).
    Tests may redirect or silence it. *)
val race_logger : (string -> unit) ref

(** Counters describing what the guard instrumentation compiled to;
    [gs_checks] additionally counts checks actually executed at run
    time (accumulating across runs of the same compiled function). *)
type guard_stats = {
  mutable gs_sites : int;    (** access sites compiled under guard *)
  mutable gs_checked : int;  (** sites that got a runtime bounds check *)
  mutable gs_elided : int;   (** sites statically proved → fast path *)
  mutable gs_checks : int;   (** runtime bounds checks executed *)
}

(** A point-in-time reading of [gs_checks].  The raw counter accumulates
    across every run of one compiled artifact — the right lifetime
    total, but meaningless per request once artifacts are cached and
    reused.  Take a snapshot before a run and ask for the delta after:

    {[
      let s = Compile_exec.guard_snapshot g in
      cd.cd_run args sizes;
      let per_request = Compile_exec.guard_checks_since g s in
    ]} *)
type guard_snapshot

val guard_snapshot : guard_stats -> guard_snapshot

(** Runtime bounds checks executed since the snapshot was taken. *)
val guard_checks_since : guard_stats -> guard_snapshot -> int

type compiled = {
  cd_fn : Stmt.func;
      (** The tree the closures were compiled from: the lowered function
          unless compiled with [~guard:true] or [FT_LOWER=0]. *)
  cd_run : (string * Tensor.t) list -> (string * int) list -> unit;
      (** [cd_run args sizes] binds the parameters and executes once.
          Every [sizes] entry must name a free size variable of the
          function and every [args] entry a declared parameter;
          unknown names raise {!Exec_error} rather than being silently
          ignored, as does a tensor whose shape contradicts the
          parameter's compile-time-static declared shape.  The error
          messages are the canonical {!Ft_ir.Diag} renderings, shared
          with {!Interp.run_func} under guard; so does a tensor whose
          dtype is float where the declared one is integer, or the
          reverse (compiled loads index the buffer the declared dtype
          implies).

          Not reentrant: the artifact keeps per-run state (parameter
          bindings, expression slots, recycled local buffers), so two
          calls of one [cd_run] must never overlap.  The serving layer
          keeps same-key requests sequential for exactly this reason. *)
  cd_guard : guard_stats option;
      (** [Some] iff compiled with [~guard:true]. *)
}

(** Compile once; run many times with different argument tensors.

    [parallel] (default [false]) honors the scheduler's parallel
    annotations: the outermost loop marked [Openmp] / [Cuda_block_*]
    executes its iteration chunks on the {!Exec_par} domain pool, with
    per-worker compiled body instances and deferred reductions replayed
    in sequential iteration order — results are bitwise-identical to
    sequential execution for any pool size.

    Every annotated loop is vetted by the static race verifier
    ({!Ft_analyze.Race}) at compile time: [Safe] loops run parallel with
    direct reduce updates (no element is shared between iterations);
    [Safe_with_atomics] loops run parallel through the deferred-
    reduction log, provided the body does not also load/store a deferred
    target (otherwise they are demoted); [Racy] loops compile
    sequentially and report the reason through {!race_logger}.

    [guard] (default [false]) turns on the memory sanitizer, mirroring
    {!Interp.run_func}'s [guard]: bounds checks on every access,
    uninitialized-read checks on [Var_def] locals (per-tensor init
    bitmap) and NaN poison checks on float stores and reduce operands
    (+/-inf and literal constant initializers are exempt, as in the
    interpreter).  First the static prover ({!Ft_analyze.Boundcheck})
    certifies access sites; proved sites keep the unguarded fast path —
    no runtime bounds check, compile-time strength reduction intact —
    and are counted in [gs_elided]; unproved sites get a runtime bounds
    check.  Guarded compilation skips the lowering pipeline, so it runs
    the tree the prover certified.  A fault raises
    {!Ft_ir.Diag.Diag_error} carrying the statement id, the enclosing
    iteration vector, the concrete index and the pretty-printed IR
    context — byte-identical to the interpreter's diagnostic for the
    same first fault.

    [hooks] (default [false]) compiles in the execution supervisor's
    hooks: a [Machine.on_kernel] call at every kernel boundary (the cost
    model's segmentation: each host-level non-[Var_def] statement), a
    [Machine.poll] per iteration of each kernel-root loop, and an
    abort-flag check per iteration of parallel chunk loops so a failed
    chunk cancels its siblings.  The hooks are inert no-ops unless a
    supervisor run context is installed, and with [hooks:false] the
    emitted closures are exactly the unsupervised ones — the default hot
    path is unchanged. *)
val compile :
  ?parallel:bool -> ?guard:bool -> ?hooks:bool -> Stmt.func -> compiled

(** One-shot convenience mirroring {!Interp.run_func}. *)
val run_func :
  ?sizes:(string * int) list ->
  ?parallel:bool ->
  ?guard:bool ->
  ?hooks:bool ->
  Stmt.func ->
  (string * Tensor.t) list ->
  unit
