(** Execution profiler: observed per-statement and per-kernel counters,
    filled by {!Ft_backend.Interp}.  See the interface for the counting
    conventions. *)

open Ft_ir
module Machine = Ft_machine.Machine

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable load_bytes : int;
  mutable store_bytes : int;
  mutable dram_bytes : int;
  mutable fadd : int;
  mutable fmul : int;
  mutable fdiv : int;
  mutable fspecial : int;
  mutable fother : int;
  mutable iops : int;
  mutable cmps : int;
  mutable entries : int;
  mutable trips : int;
  mutable atomics : int;  (* atomic RMW updates ([Reduce_to] with [r_atomic]) *)
}

let zero_counters () =
  { loads = 0; stores = 0; load_bytes = 0; store_bytes = 0; dram_bytes = 0;
    fadd = 0; fmul = 0; fdiv = 0; fspecial = 0; fother = 0; iops = 0;
    cmps = 0; entries = 0; trips = 0; atomics = 0 }

let copy_counters c = { c with loads = c.loads }
let flops c = c.fadd + c.fmul + c.fdiv + c.fspecial + c.fother

let add_counters ~into c =
  into.loads <- into.loads + c.loads;
  into.stores <- into.stores + c.stores;
  into.load_bytes <- into.load_bytes + c.load_bytes;
  into.store_bytes <- into.store_bytes + c.store_bytes;
  into.dram_bytes <- into.dram_bytes + c.dram_bytes;
  into.fadd <- into.fadd + c.fadd;
  into.fmul <- into.fmul + c.fmul;
  into.fdiv <- into.fdiv + c.fdiv;
  into.fspecial <- into.fspecial + c.fspecial;
  into.fother <- into.fother + c.fother;
  into.iops <- into.iops + c.iops;
  into.cmps <- into.cmps + c.cmps;
  into.entries <- into.entries + c.entries;
  into.trips <- into.trips + c.trips;
  into.atomics <- into.atomics + c.atomics

let diff_counters a b =
  { loads = a.loads - b.loads;
    stores = a.stores - b.stores;
    load_bytes = a.load_bytes - b.load_bytes;
    store_bytes = a.store_bytes - b.store_bytes;
    dram_bytes = a.dram_bytes - b.dram_bytes;
    fadd = a.fadd - b.fadd;
    fmul = a.fmul - b.fmul;
    fdiv = a.fdiv - b.fdiv;
    fspecial = a.fspecial - b.fspecial;
    fother = a.fother - b.fother;
    iops = a.iops - b.iops;
    cmps = a.cmps - b.cmps;
    entries = a.entries - b.entries;
    trips = a.trips - b.trips;
    atomics = a.atomics - b.atomics }

let counters_equal (a : counters) (b : counters) = a = b
let is_zero c = c = zero_counters ()

let counters_to_string c =
  Printf.sprintf
    "flops=%d (add=%d mul=%d div=%d special=%d other=%d) loads=%d stores=%d \
     iops=%d cmps=%d dram=%dB atomics=%d trips=%d/%d"
    (flops c) c.fadd c.fmul c.fdiv c.fspecial c.fother c.loads c.stores
    c.iops c.cmps c.dram_bytes c.atomics c.trips c.entries

(* ------------------------------------------------------------------ *)
(* Operator counting (syntactic, root node only) *)

(* One operation of the class of [e]'s root operator; loads, constants,
   variables, casts and logicals count nothing. *)
let bump_expr c (e : Expr.t) =
  match e with
  | Expr.Binop ((Expr.Add | Expr.Sub), _, _) -> c.fadd <- c.fadd + 1
  | Expr.Binop (Expr.Mul, _, _) -> c.fmul <- c.fmul + 1
  | Expr.Binop (Expr.Div, _, _) -> c.fdiv <- c.fdiv + 1
  | Expr.Binop (Expr.Pow, _, _)
  | Expr.Unop ((Expr.Sqrt | Expr.Exp | Expr.Ln | Expr.Sigmoid | Expr.Tanh), _)
    ->
    c.fspecial <- c.fspecial + 1
  | Expr.Binop ((Expr.Min | Expr.Max), _, _)
  | Expr.Unop
      ((Expr.Neg | Expr.Abs | Expr.Square | Expr.Floor_op | Expr.Ceil_op), _)
  | Expr.Select _ ->
    c.fother <- c.fother + 1
  | Expr.Binop ((Expr.Floor_div | Expr.Mod), _, _) -> c.iops <- c.iops + 1
  | Expr.Binop
      ((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _) ->
    c.cmps <- c.cmps + 1
  | Expr.Binop ((Expr.L_and | Expr.L_or), _, _)
  | Expr.Unop (Expr.Not, _)
  | Expr.Int_const _ | Expr.Float_const _ | Expr.Bool_const _ | Expr.Var _
  | Expr.Load _ | Expr.Cast _ | Expr.Meta_ndim _ | Expr.Meta_shape _ ->
    ()

let bump_reduce ?(atomic = false) c op =
  if atomic then c.atomics <- c.atomics + 1;
  match op with
  | Types.R_add -> c.fadd <- c.fadd + 1
  | Types.R_mul -> c.fmul <- c.fmul + 1
  | Types.R_min | Types.R_max -> c.fother <- c.fother + 1

(* ------------------------------------------------------------------ *)
(* Kernels and the profile *)

type kernel = {
  k_sid : int;
  k_label : string option;
  k_index : int;
  k_root : Stmt.t;
  k_ctr : counters;
  mutable k_parallel : int;
  mutable k_vectorized : bool;
  mutable k_is_lib : bool;
  k_footprint : (string, int) Hashtbl.t;
  k_t0 : float;
  mutable k_t1 : float;
}

let footprint_bytes k = Hashtbl.fold (fun _ b acc -> acc + b) k.k_footprint 0

type t = {
  sid_ctrs : (int, counters) Hashtbl.t;
  mutable rev_kernels : kernel list;
  mutable n_kernels : int;
  mutable cur : (kernel * counters) option; (* kernel, totals-at-entry *)
  mutable live_bytes : int;
  mutable peak_live : int;
  t_start : float;
}

let create () =
  { sid_ctrs = Hashtbl.create 64; rev_kernels = []; n_kernels = 0;
    cur = None; live_bytes = 0; peak_live = 0;
    t_start = Unix.gettimeofday () }

let ctr p sid =
  match Hashtbl.find_opt p.sid_ctrs sid with
  | Some c -> c
  | None ->
    let c = zero_counters () in
    Hashtbl.replace p.sid_ctrs sid c;
    c

let stmt_counters p sid =
  match Hashtbl.find_opt p.sid_ctrs sid with
  | Some c -> copy_counters c
  | None -> zero_counters ()

let totals p =
  let acc = zero_counters () in
  Hashtbl.iter (fun _ c -> add_counters ~into:acc c) p.sid_ctrs;
  acc

let kernels p = List.rev p.rev_kernels
let peak_live_bytes p = p.peak_live

let record_read p c ~dram ~name ~elem ~total =
  c.loads <- c.loads + 1;
  c.load_bytes <- c.load_bytes + elem;
  if dram then begin
    c.dram_bytes <- c.dram_bytes + elem;
    match p.cur with
    | Some (k, _) -> Hashtbl.replace k.k_footprint name total
    | None -> ()
  end

let record_write p c ~dram ~name ~elem ~total =
  c.stores <- c.stores + 1;
  c.store_bytes <- c.store_bytes + elem;
  if dram then begin
    c.dram_bytes <- c.dram_bytes + elem;
    match p.cur with
    | Some (k, _) -> Hashtbl.replace k.k_footprint name total
    | None -> ()
  end

let alloc p bytes =
  p.live_bytes <- p.live_bytes + bytes;
  if p.live_bytes > p.peak_live then p.peak_live <- p.live_bytes

let release p bytes = p.live_bytes <- p.live_bytes - bytes

let enter_kernel p (root : Stmt.t) =
  let k =
    { k_sid = root.Stmt.sid; k_label = root.Stmt.label;
      k_index = p.n_kernels; k_root = root; k_ctr = zero_counters ();
      k_parallel = 1; k_vectorized = false; k_is_lib = false;
      k_footprint = Hashtbl.create 8; k_t0 = Unix.gettimeofday ();
      k_t1 = 0.0 }
  in
  p.cur <- Some (k, totals p)

let exit_kernel p =
  match p.cur with
  | None -> invalid_arg "Profile.exit_kernel: no open kernel"
  | Some (k, snapshot) ->
    p.cur <- None;
    add_counters ~into:k.k_ctr (diff_counters (totals p) snapshot);
    (* summarize observed schedule annotations of the subtree *)
    Stmt.iter
      (fun s ->
        match s.Stmt.node with
        | Stmt.For f ->
          if f.Stmt.f_property.Stmt.vectorize then k.k_vectorized <- true;
          if f.Stmt.f_property.Stmt.parallel <> None then begin
            let c = ctr p s.Stmt.sid in
            if c.entries > 0 then
              k.k_parallel <- k.k_parallel * max 1 (c.trips / c.entries)
          end
        | Stmt.Lib_call _ -> k.k_is_lib <- true
        | _ -> ())
      k.k_root;
    k.k_t1 <- Unix.gettimeofday ();
    p.rev_kernels <- k :: p.rev_kernels;
    p.n_kernels <- p.n_kernels + 1

let replay_cost (sp : Machine.spec) p : Machine.metrics =
  let m = Machine.fresh_metrics () in
  List.iter
    (fun k ->
      let fp = float_of_int (footprint_bytes k) in
      let parallel_iters, vectorized, l2 =
        if k.k_is_lib then (sp.Machine.parallelism, true, fp)
        else (k.k_parallel, k.k_vectorized, float_of_int k.k_ctr.dram_bytes)
      in
      Machine.charge_kernel sp m
        ~atomic_rmws:(float_of_int k.k_ctr.atomics)
        ~parallel_iters ~vectorized
        ~flops:(float_of_int (flops k.k_ctr))
        ~l2_bytes:l2 ~footprint_bytes:fp
        ~live_bytes:(float_of_int p.peak_live))
    (kernels p);
  m

(* ------------------------------------------------------------------ *)
(* Reporting *)

let sif n = Machine.si (float_of_int n)

let stmt_desc (s : Stmt.t) =
  match s.Stmt.node with
  | Stmt.For f -> Printf.sprintf "for %s" f.Stmt.f_iter
  | Stmt.Store st -> "store " ^ st.Stmt.s_var
  | Stmt.Reduce_to r ->
    Printf.sprintf "%s %s" r.Stmt.r_var (Types.reduce_op_to_string r.Stmt.r_op)
  | Stmt.Var_def d -> "alloc " ^ d.Stmt.d_name
  | Stmt.If _ -> "if"
  | Stmt.Assert_stmt _ -> "assert"
  | Stmt.Seq _ -> "seq"
  | Stmt.Eval _ -> "eval"
  | Stmt.Lib_call { lib; _ } -> "lib " ^ lib
  | Stmt.Microkernel { mk; _ } -> "microkernel " ^ mk
  | Stmt.Call { callee; _ } -> "call " ^ callee
  | Stmt.Nop -> "nop"

let report (fn : Stmt.func) p =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let tot = totals p in
  pr "== profile report: %s ==\n" fn.Stmt.fn_name;
  pr "observed totals: kernels=%d %s\n" p.n_kernels (counters_to_string tot);
  pr "peak live memory: %sB\n" (sif p.peak_live);
  pr "\n-- kernels (launch order) --\n";
  List.iter
    (fun k ->
      pr "  #%d [sid %d%s] %s: flops=%s loads=%s stores=%s dram=%sB \
          footprint=%sB par=%d%s%s\n"
        k.k_index k.k_sid
        (match k.k_label with Some l -> " " ^ l | None -> "")
        (stmt_desc k.k_root)
        (sif (flops k.k_ctr))
        (sif k.k_ctr.loads) (sif k.k_ctr.stores) (sif k.k_ctr.dram_bytes)
        (sif (footprint_bytes k))
        k.k_parallel
        (if k.k_vectorized then " vec" else "")
        (if k.k_is_lib then " lib" else ""))
    (kernels p);
  pr "\n-- source tree (subtree-aggregated observed counters) --\n";
  (* Seq is transparent: children print at the parent's depth.  Subtrees
     that observed nothing (never-executed branches) are skipped. *)
  let rec subtree (s : Stmt.t) : counters =
    let acc = stmt_counters p s.Stmt.sid in
    List.iter (fun c -> add_counters ~into:acc (subtree c)) (Stmt.children s);
    acc
  in
  let rec print_tree depth (s : Stmt.t) =
    match s.Stmt.node with
    | Stmt.Seq _ -> List.iter (print_tree depth) (Stmt.children s)
    | _ ->
      let sub = subtree s in
      if not (is_zero sub) then begin
        let own = stmt_counters p s.Stmt.sid in
        let trips =
          match s.Stmt.node with
          | Stmt.For _ when own.entries > 0 ->
            Printf.sprintf " trips=%d(x%d)" own.trips own.entries
          | _ -> ""
        in
        pr "%s%-24s [sid %d]%s flops=%s loads=%s stores=%s dram=%sB\n"
          (String.make (2 * depth) ' ')
          (stmt_desc s) s.Stmt.sid trips
          (sif (flops sub)) (sif sub.loads) (sif sub.stores)
          (sif sub.dram_bytes);
        List.iter (print_tree (depth + 1)) (Stmt.children s)
      end
  in
  print_tree 0 fn.Stmt.fn_body;
  (* hottest statements by own flops, with their enclosing loop path *)
  let hot =
    Hashtbl.fold (fun sid c acc -> (sid, c) :: acc) p.sid_ctrs []
    |> List.filter (fun (_, c) -> flops c > 0)
    |> List.sort (fun (_, a) (_, b) -> compare (flops b) (flops a))
  in
  (match hot with
   | [] -> ()
   | _ ->
     pr "\n-- hottest statements --\n";
     List.iteri
       (fun i (sid, c) ->
         if i < 5 then begin
           let path =
             match Stmt.path_to_sid fn.Stmt.fn_body sid with
             | Some chain ->
               chain
               |> List.filter_map (fun (st : Stmt.t) ->
                      match st.Stmt.node with
                      | Stmt.For f -> Some f.Stmt.f_iter
                      | _ -> None)
               |> String.concat "/"
             | None -> "?"
           in
           let target =
             match Stmt.find_by_id sid fn.Stmt.fn_body with
             | Some st -> stmt_desc st
             | None -> "?"
           in
           pr "  %d. %s flops  %s: %s  [sid %d]\n" (i + 1)
             (sif (flops c))
             (if path = "" then "(top)" else path)
             target sid
         end)
       hot);
  Buffer.contents buf

let vs_table ~(spec : Machine.spec) ~(predicted : Machine.metrics)
    ?(per_kernel = []) p =
  let obs = replay_cost spec p in
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let fmt_val name v =
    if name = "time" then Machine.time_to_string v
    else if name = "kernels" then Printf.sprintf "%d" (int_of_float v)
    else if name = "FLOPs" || name = "atomics" then Machine.si v
    else Machine.si v ^ "B"
  in
  pr "%-12s %14s %14s %10s\n" "metric" "predicted" "observed" "pred/obs";
  List.iter2
    (fun (name, pv) (_, ov) ->
      let ratio =
        if ov = 0.0 then (if pv = 0.0 then "1.00" else "-")
        else Printf.sprintf "%.2f" (pv /. ov)
      in
      pr "%-12s %14s %14s %10s\n" name (fmt_val name pv) (fmt_val name ov)
        ratio)
    (Machine.metrics_rows predicted) (Machine.metrics_rows obs);
  if per_kernel <> [] then begin
    pr "-- per kernel (predicted vs observed time) --\n";
    List.iter
      (fun k ->
        match List.assoc_opt k.k_sid per_kernel with
        | None -> ()
        | Some pm ->
          let om = Machine.fresh_metrics () in
          let fp = float_of_int (footprint_bytes k) in
          let parallel_iters, vectorized, l2 =
            if k.k_is_lib then (spec.Machine.parallelism, true, fp)
            else
              (k.k_parallel, k.k_vectorized,
               float_of_int k.k_ctr.dram_bytes)
          in
          Machine.charge_kernel spec om
            ~atomic_rmws:(float_of_int k.k_ctr.atomics)
            ~parallel_iters ~vectorized
            ~flops:(float_of_int (flops k.k_ctr))
            ~l2_bytes:l2 ~footprint_bytes:fp ~live_bytes:0.0;
          pr "  #%d [sid %d] %-18s %14s %14s\n" k.k_index k.k_sid
            (stmt_desc k.k_root)
            (Machine.time_to_string pm.Machine.time)
            (Machine.time_to_string om.Machine.time))
      (kernels p)
  end;
  Buffer.contents buf

(* JSON string-body escaping per RFC 8259: quote, backslash, and control
   characters.  Kernel names embed user-chosen tensor/function names, so
   hostile names must not produce invalid trace files. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_chrome_json p =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun k ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      let ts = (k.k_t0 -. p.t_start) *. 1e6 in
      let dur = Float.max 0.0 ((k.k_t1 -. k.k_t0) *. 1e6) in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"kernel sid%d %s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
            \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"flops\":%d,\"loads\":%d,\
            \"stores\":%d,\"dram_bytes\":%d,\"atomics\":%d}}"
           k.k_sid
           (json_escape (stmt_desc k.k_root))
           ts dur (flops k.k_ctr) k.k_ctr.loads k.k_ctr.stores
           k.k_ctr.dram_bytes k.k_ctr.atomics))
    (kernels p);
  Buffer.add_string buf "]}";
  Buffer.contents buf
