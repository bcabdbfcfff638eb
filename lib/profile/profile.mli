(** Execution profiler: observed per-statement and per-kernel counters.

    The reference interpreter ({!Ft_backend.Interp}) is the one
    profiler: it accepts an optional [?profile] argument.  To observe
    the code the compiled executor serves, run it on the tree that
    executor compiled ([(Compile_exec.compile fn).cd_fn]: lowered, with
    [Microkernel] nests whose bodies are their semantics).  When given a
    profile, every executed expression node bumps an operation counter
    classified by its root operator, every tensor access records
    loads/stores and byte traffic, every loop records entries and trip
    counts, and the host-level walk segments the execution into kernels
    — the same segmentation the analytic cost model
    ({!Ft_backend.Costmodel}) uses, so predicted and observed quantities
    are directly comparable.  {!replay_cost} prices
    the observed counters through {!Ft_machine.Machine.kernel_cost},
    making predicted-vs-observed divergence a first-class, testable
    quantity.

    Counting conventions:
    - [Eval] statements are not counted (the compiled executor elides
      pure expression statements entirely);
    - operator classification is purely syntactic — an [Add] over
      integer indices counts toward [fadd] just like a float add;
    - a tensor access counts as DRAM traffic iff its memory type is
      [Cpu_heap] or [Gpu_global] (device-independent, unlike the cost
      model's GPU treatment of [Cpu_stack] scratch). *)

open Ft_ir
module Machine = Ft_machine.Machine

(** Observed event counters.  [entries]/[trips] are only meaningful on
    loop statements; byte counters follow the accessed tensor's dtype. *)
type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable load_bytes : int;
  mutable store_bytes : int;
  mutable dram_bytes : int;  (** bytes moved on DRAM-resident tensors *)
  mutable fadd : int;        (** Add / Sub *)
  mutable fmul : int;
  mutable fdiv : int;
  mutable fspecial : int;    (** Pow, Sqrt, Exp, Ln, Sigmoid, Tanh *)
  mutable fother : int;      (** Min/Max/Abs/Neg/Square/Select/floor/ceil *)
  mutable iops : int;        (** integer Floor_div / Mod *)
  mutable cmps : int;        (** comparisons *)
  mutable entries : int;     (** loop entries *)
  mutable trips : int;       (** loop iterations executed *)
  mutable atomics : int;
      (** atomic RMW updates: [Reduce_to] with [r_atomic] executed *)
}

val zero_counters : unit -> counters
val copy_counters : counters -> counters

(** Total floating-point operations: fadd+fmul+fdiv+fspecial+fother. *)
val flops : counters -> int

(** Accumulate [c] into [into]. *)
val add_counters : into:counters -> counters -> unit

(** [diff_counters a b] is a fresh [a - b], fieldwise. *)
val diff_counters : counters -> counters -> counters

val counters_equal : counters -> counters -> bool
val is_zero : counters -> bool
val counters_to_string : counters -> string

(** Direct counting for the interpreter's hot loop (no allocation). *)
val bump_expr : counters -> Expr.t -> unit

(** +1 op for the read-modify-write combine of a [Reduce_to];
    [~atomic:true] additionally counts one atomic RMW. *)
val bump_reduce : ?atomic:bool -> counters -> Types.reduce_op -> unit

(** {1 Kernels} *)

(** One host-level kernel launch: a top-level statement outside any loop
    (the cost model's segmentation).  Counters are the subtree's share of
    the run; [k_parallel]/[k_vectorized]/[k_is_lib] summarize schedule
    annotations observed in the subtree; [k_footprint] maps each
    DRAM-resident tensor touched to its byte size. *)
type kernel = {
  k_sid : int;
  k_label : string option;
  k_index : int;                 (** launch order *)
  k_root : Stmt.t;
  k_ctr : counters;
  mutable k_parallel : int;      (** product of observed parallel extents *)
  mutable k_vectorized : bool;
  mutable k_is_lib : bool;
  k_footprint : (string, int) Hashtbl.t;
  k_t0 : float;
  mutable k_t1 : float;          (** wall-clock seconds (chrome trace) *)
}

val footprint_bytes : kernel -> int

(** {1 The profile} *)

type t

val create : unit -> t

(** Per-statement counter cell, created on first use. *)
val ctr : t -> int -> counters

(** Counters of a statement id observed so far (zero if never touched). *)
val stmt_counters : t -> int -> counters

(** Sum of all per-statement counters. *)
val totals : t -> counters

(** Kernels in launch order. *)
val kernels : t -> kernel list

val peak_live_bytes : t -> int

(** {1 Executor hooks} *)

(** Record one tensor read/write against [c]: [elem] bytes move; when
    [dram], DRAM traffic and the current kernel's footprint ([name] ->
    [total] bytes) are charged too. *)
val record_read :
  t -> counters -> dram:bool -> name:string -> elem:int -> total:int -> unit

val record_write :
  t -> counters -> dram:bool -> name:string -> elem:int -> total:int -> unit

(** Track an allocation / release of [bytes] live tensor memory. *)
val alloc : t -> int -> unit

val release : t -> int -> unit

(** Open / close a kernel rooted at the given host-level statement.
    Must be balanced; the kernel's counters are the delta of the totals
    between the two calls. *)
val enter_kernel : t -> Stmt.t -> unit

val exit_kernel : t -> unit

(** Price the observed counters through the machine model: per kernel,
    observed FLOPs / DRAM bytes / footprint / parallelism go through
    {!Machine.charge_kernel}.  The analytic model's counterpart is
    {!Ft_backend.Costmodel.estimate} — divergence between the two is a
    cost-model bug or a schedule the model prices differently. *)
val replay_cost : Machine.spec -> t -> Machine.metrics

(** {1 Reporting} *)

(** Hierarchical per-loop report: the function's statement tree with
    subtree-aggregated observed counters, kernel launches, and the
    hottest statements with their enclosing loop paths. *)
val report : Stmt.func -> t -> string

(** Predicted-vs-observed table.  [predicted] comes from the analytic
    cost model; the observed column prices this profile via
    {!replay_cost}.  [per_kernel] optionally adds per-kernel rows
    (predicted metrics keyed by kernel-root sid). *)
val vs_table :
  spec:Machine.spec ->
  predicted:Machine.metrics ->
  ?per_kernel:(int * Machine.metrics) list ->
  t ->
  string

(** JSON string-body escaping per RFC 8259 (quote, backslash, control
    characters) — applied to every interpolated name in
    {!to_chrome_json}. *)
val json_escape : string -> string

(** chrome://tracing -compatible JSON of the kernel timeline. *)
val to_chrome_json : t -> string
