(* In-memory spans for the traced run.  Spans are recorded only around
   the benchmark's own calls into a layer's public function, never
   inside the program.  Each has a name, a start, an end, its parent and
   the request it belongs to; they stay in memory and are written out as
   JSON lines when the run ends.  Off, [with_] is a direct call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : t list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []

(* Run [f] inside a span named [name], child of the innermost open span. *)
let with_ ~req name f =
  if not !on then f ()
  else begin
    (* Reserve the id now so children can name their parent. *)
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let t0 = Unix.gettimeofday () in
    let close () =
      open_ids := List.tl !open_ids;
      spans := { id; name; parent; req; t0; t1 = Unix.gettimeofday () } :: !spans
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

(* Per span name: (count, total duration, total self time) in seconds.
   Self time is a span's duration minus the time its child spans cover;
   children of one span never overlap (the master is single-threaded). *)
let summary () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, td, ts =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name (n + 1, td +. d, ts +. self))
    !spans;
  List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) acc [])

(* Write every span, oldest first, as one JSON object per line; times
   are microseconds from [origin]. *)
let write ~origin path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"req\":%d,\"start_us\":%.1f,\"end_us\":%.1f}\n"
        s.id s.name s.parent s.req
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. origin) *. 1e6))
    (List.sort (fun a b -> compare a.t0 b.t0) !spans);
  close_out oc
