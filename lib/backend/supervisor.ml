(* Resilient execution supervisor: retry / fallback / fail-closed across
   backends.  See supervisor.mli. *)

open Ft_ir
open Ft_runtime
module Machine = Ft_machine.Machine

type backend =
  | Parallel
  | Compiled
  | Interp_ref

let backend_name = function
  | Parallel -> "parallel"
  | Compiled -> "compiled-seq"
  | Interp_ref -> "interp"

type backoff = {
  bo_base : int;
  bo_factor : int;
  bo_cap : int;
}

type policy = {
  backends : backend list;
  retries : int;
  backoff : backoff;
  deadline : Machine.deadline;
  mem_budget_bytes : int option;
  guard : bool;
  on_degrade : string -> unit;
}

let default_policy =
  { backends = [ Parallel; Compiled; Interp_ref ];
    retries = 2;
    backoff = { bo_base = 1; bo_factor = 2; bo_cap = 8 };
    deadline = Machine.No_deadline;
    mem_budget_bytes = None;
    guard = false;
    on_degrade = ignore }

type attempt = {
  at_backend : backend;
  at_retry : int;
  at_backoff : int;
  at_kernels : int;
  at_ticks : int;
  at_fault : Diag.t option;
}

type outcome = {
  result : backend option;
  attempts : attempt list;
  retried : bool;
  degraded : bool;
  diags : Diag.t list;
}

type runner = (string * Tensor.t) list -> (string * int) list -> unit

type prepared_backend = {
  pb_backend : backend;
  pb_impl : (runner, Diag.t) result;
  pb_guard : Compile_exec.guard_stats option;
}

type t = {
  sv_fn : Stmt.func;
  sv_policy : policy;
  sv_backends : prepared_backend list;
  sv_snapshots : (string, Tensor.t) Hashtbl.t;
      (* per-argument snapshot buffers, reused across requests.  Like the
         compiled closures' recycled buffers this is per-artifact mutable
         state: sound because one artifact never executes two requests
         at once (the serving layer keeps same-key requests sequential) *)
}

(* Capped exponential backoff in simulated-clock ticks: 0 for the first
   attempt, then base * factor^(retry-1), capped.  Recorded in the
   attempt log, never slept — tests stay wall-time free. *)
let backoff_ticks (bo : backoff) retry =
  if retry <= 0 then 0
  else begin
    let v = ref bo.bo_base in
    for _ = 2 to retry do
      if !v < bo.bo_cap then v := !v * bo.bo_factor
    done;
    min !v bo.bo_cap
  end

(* Map any exception an attempt can raise to a structured diagnostic.
   Entry errors travel as [Interp_error]/[Exec_error] strings rendered
   from a Diag (see the executors' [entry_err]); recover their code from
   the "error[tag]" prefix so they classify as [Entry] and fail closed
   instead of walking the chain. *)
let code_of_message m =
  if String.length m > 6 && String.sub m 0 6 = "error[" then
    match String.index_opt m ']' with
    | Some j -> Diag.code_of_string (String.sub m 6 (j - 6))
    | None -> None
  else None

let diag_of_exn ~fn = function
  | Diag.Diag_error d -> d
  | Interp.Interp_error m | Compile_exec.Exec_error m -> (
    match code_of_message m with
    | Some code -> Diag.make ~code ~fn m
    | None -> Diag.exec_fault ~fn m)
  | Interp.Race_detected m -> Diag.race ~fn m
  | Tensor.Fault f -> Diag.exec_fault ~fn (Tensor.fault_to_string f)
  | Machine.Out_of_memory { needed; capacity } ->
    Diag.make ~code:Diag.Oom ~fn
      (Printf.sprintf
         "device memory exhausted: %.0f bytes needed of %.0f capacity"
         needed capacity)
  | e -> Diag.exec_fault ~fn (Printexc.to_string e)

let prepare ~policy (fn : Stmt.func) : t =
  let name = fn.Stmt.fn_name in
  let compile_runner ~parallel =
    match
      Compile_exec.compile ~parallel ~guard:policy.guard ~hooks:true fn
    with
    | cd ->
      ( Ok (fun args sizes -> cd.Compile_exec.cd_run args sizes),
        cd.Compile_exec.cd_guard )
    | exception e -> (Error (diag_of_exn ~fn:name e), None)
  in
  let mk b =
    let impl, guard =
      match b with
      | Parallel -> compile_runner ~parallel:true
      | Compiled -> compile_runner ~parallel:false
      | Interp_ref ->
        ( Ok
            (fun args sizes ->
              Interp.run_func ~sizes ~guard:policy.guard fn args),
          None )
    in
    { pb_backend = b; pb_impl = impl; pb_guard = guard }
  in
  { sv_fn = fn; sv_policy = policy;
    sv_backends = List.map mk policy.backends;
    sv_snapshots = Hashtbl.create 4 }

(* Guard statistics of the prepared compiled backends (empty unless the
   policy compiled with [guard]) — the serving layer snapshots these
   around each request to report per-request check counts. *)
let guard_stats (sv : t) =
  List.filter_map
    (fun pb -> Option.map (fun g -> (pb.pb_backend, g)) pb.pb_guard)
    sv.sv_backends

(* The memory budget models device memory, so it binds the compiled
   backends; the interpreter is the host-side eager fallback and runs
   unbudgeted — the chain's last resort can always serve. *)
let budgeted = function
  | Parallel | Compiled -> true
  | Interp_ref -> false

(* Drop the first [skip] prepared backends: the serving layer's circuit
   breaker routes requests on a tripped key straight to the fallback
   chain, without paying (or re-failing) the broken primary. *)
let rec drop_backends k l =
  if k <= 0 then l
  else match l with [] -> [] | _ :: rest -> drop_backends (k - 1) rest

let exec ?plan ?(sizes = []) ?(skip = 0) (sv : t)
    (args : (string * Tensor.t) list) : outcome =
  let p = sv.sv_policy in
  let fn_name = sv.sv_fn.Stmt.fn_name in
  (* Snapshot every argument a run can mutate, so each attempt after the
     first starts from bitwise-pristine inputs — a completed result is
     then bitwise-identical to a fault-free run of the serving backend. *)
  let mutated =
    List.filter_map
      (fun (pa : Stmt.param) ->
        match pa.Stmt.p_atype with
        | Types.Input -> None
        | _ -> Some pa.Stmt.p_name)
      sv.sv_fn.Stmt.fn_params
  in
  let snapshot =
    List.filter_map
      (fun (n, t) ->
        if not (List.mem n mutated) then None
        else
          match Hashtbl.find_opt sv.sv_snapshots n with
          | Some s when Tensor.dims s = Tensor.dims t
                        && Tensor.dtype s = Tensor.dtype t ->
            Tensor.copy_into ~src:t ~dst:s;
            Some (n, s)
          | _ ->
            let s = Tensor.copy t in
            Hashtbl.replace sv.sv_snapshots n s;
            Some (n, s))
      args
  in
  let restore () =
    List.iter
      (fun (n, s) ->
        match List.assoc_opt n args with
        | Some dst -> Tensor.copy_into ~src:s ~dst
        | None -> ())
      snapshot
  in
  let attempts = ref [] in
  let diags = ref [] in
  let pristine = ref true in
  let record a = attempts := a :: !attempts in
  (* [on_degrade] is a notification callback; a poisoned one must not be
     able to abort serving or leak the installed run context, so it runs
     fenced — after the attempt's context is torn down — and any
     exception it raises is swallowed. *)
  let notify_degrade msg = try p.on_degrade msg with _ -> () in
  let rec try_chain chain =
    match chain with
    | [] -> None
    | { pb_backend = b; pb_impl = impl; _ } :: rest -> (
      let fall () =
        (match rest with
         | { pb_backend = nb; _ } :: _ ->
           notify_degrade
             (Printf.sprintf "%s: degrading %s -> %s" fn_name
                (backend_name b) (backend_name nb))
         | [] -> ());
        try_chain rest
      in
      let rec attempt retry =
        let bo = backoff_ticks p.backoff retry in
        match impl with
        | Error d ->
          record
            { at_backend = b; at_retry = retry; at_backoff = bo;
              at_kernels = 0; at_ticks = 0; at_fault = Some d };
          diags := d :: !diags;
          `Fall
        | Ok run ->
          if not !pristine then restore ();
          pristine := false;
          (* Everything that happens between installing the run context
             and recording the attempt is fenced by [Fun.protect] inside
             [Ctx.with_installed]: if the run, [diag_of_exn], or the
             restore path raises, the context and budget still come down
             before the exception travels — a failed attempt can never
             leak supervision state into the next request.  The context
             is a per-attempt value installed on this domain only, so
             concurrent requests on other domains are untouched. *)
          let cx = Machine.Ctx.make ?plan ~deadline:p.deadline ~fn:fn_name () in
          let fault =
            Machine.Ctx.with_installed cx (fun () ->
                let budget =
                  (* Per-request child budget: when an enclosing scope (a
                     serving-layer batch-group cap) is active, chain
                     under it — the request keeps its own accounting and
                     the group keeps its aggregate bound. *)
                  if budgeted b then
                    Option.map
                      (fun cap ->
                        Tensor.install_budget ~fn:fn_name
                          ?parent:(Tensor.current_budget ()) cap)
                      p.mem_budget_bytes
                  else None
                in
                Fun.protect
                  ~finally:(fun () ->
                    Option.iter Tensor.release_budget budget)
                  (fun () ->
                    let body () = run args sizes in
                    let body =
                      (* The interpreter is the unbudgeted host-side last
                         resort, even under an externally installed batch
                         budget. *)
                      if budgeted b then body
                      else fun () -> Tensor.unbudgeted body
                    in
                    match body () with
                    | () -> None
                    | exception e -> Some (diag_of_exn ~fn:fn_name e)))
          in
          record
            { at_backend = b; at_retry = retry; at_backoff = bo;
              at_kernels = Machine.Ctx.kernels cx;
              at_ticks = Machine.Ctx.ticks cx; at_fault = fault };
          (match fault with
           | None -> `Served
           | Some d ->
             diags := d :: !diags;
             (match Diag.classify d.Diag.dg_code with
              | Diag.Transient when retry < p.retries ->
                attempt (retry + 1)
              | Diag.Entry -> `Closed
              | Diag.Transient | Diag.Resource | Diag.Logic -> `Fall))
      in
      match attempt 0 with
      | `Served -> Some b
      | `Closed -> None
      | `Fall -> fall ())
  in
  let result = try_chain (drop_backends skip sv.sv_backends) in
  let attempts = List.rev !attempts in
  (* [degraded] is always judged against the full chain's primary: a
     breaker-routed request served by a fallback backend was demoted,
     even though the primary never got an attempt. *)
  let primary =
    match sv.sv_backends with
    | { pb_backend = b; _ } :: _ -> Some b
    | [] -> None
  in
  { result;
    attempts;
    (* [retried]: the serving backend needed more than one try — some
       attempt on it faulted before it served.  [degraded]: the request
       was actually demoted down the chain; a transient fault absorbed
       by a retry on the primary is not degradation, and serving metrics
       must not report it as such. *)
    retried =
      (match result with
       | None -> false
       | Some b ->
         List.exists
           (fun a -> a.at_backend = b && a.at_fault <> None)
           attempts);
    degraded = (match result with None -> false | Some b -> Some b <> primary);
    diags = List.rev !diags }

let run ?plan ?sizes ~policy (fn : Stmt.func)
    (args : (string * Tensor.t) list) : outcome =
  exec ?plan ?sizes (prepare ~policy fn) args

(* ------------------------------------------------------------------ *)
(* Deadline helpers *)

let deadline_of_estimate ?(slack = 8.0) ~device (fn : Stmt.func) =
  let m = Costmodel.estimate ~device fn in
  Machine.Seconds (Float.max 1e-6 (m.Machine.time *. slack))

let served_attempt (o : outcome) =
  match o.result with
  | None -> None
  | Some b ->
    List.find_opt
      (fun a -> a.at_backend = b && a.at_fault = None)
      o.attempts

let served_kernels o =
  match served_attempt o with None -> 0 | Some a -> a.at_kernels

let calibrate_deadline ?(slack = 4) ?sizes (sv : t)
    (args : (string * Tensor.t) list) =
  let outcome = exec ?sizes sv args in
  match served_attempt outcome with
  | None -> Machine.No_deadline
  | Some a -> Machine.Ticks ((a.at_ticks * slack) + 16)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let attempt_to_string a =
  Printf.sprintf "%-12s try %d  backoff %d  kernels %-4d %s"
    (backend_name a.at_backend) a.at_retry a.at_backoff a.at_kernels
    (match a.at_fault with
     | None -> "ok"
     | Some d ->
       Printf.sprintf "fault[%s/%s]"
         (Diag.code_to_string d.Diag.dg_code)
         (Diag.fault_class_to_string (Diag.classify d.Diag.dg_code)))

let outcome_to_string o =
  let status =
    match o.result with
    | Some b when o.degraded -> "served degraded by " ^ backend_name b
    | Some b when o.retried -> "served after retry by " ^ backend_name b
    | Some b -> "served clean by " ^ backend_name b
    | None -> "failed closed"
  in
  String.concat "\n"
    (status :: List.map (fun a -> "  " ^ attempt_to_string a) o.attempts)
