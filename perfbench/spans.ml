(* In-memory spans recorded by the benchmark around its calls into the
   lib/ layers.  A span is (id, parent, name, start, stop) on the
   Cobra_obs.Timer clock; its layer is the name's prefix up to the first
   '.', which is always one of the lib/ module groups (graph, core,
   bitset, parallel, spectral, server).  Spans stay in memory while the
   workload runs and are written out once, after the measured phase.

   Only the main domain records spans: the benchmark never calls into a
   layer from a worker. *)

type span = { id : int; parent : int; name : string; start_ns : float; stop_ns : float }

let clock = Cobra_obs.Timer.start ()
let now_ns () = Cobra_obs.Timer.elapsed_ns clock
let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 1
let open_stack : int list ref = ref []

let record name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> 0 in
    open_stack := id :: !open_stack;
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      open_stack := List.tl !open_stack;
      recorded := { id; parent; name; start_ns; stop_ns } :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* A span whose interval overlaps others of its kind (a pipelined
   request), recorded after the fact under the innermost open span. *)
let add name ~start_ns ~stop_ns =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> 0 in
    recorded := { id; parent; name; start_ns; stop_ns } :: !recorded
  end

let all () = List.rev !recorded
let layer_of name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
let duration_s s = (s.stop_ns -. s.start_ns) /. 1e9

let durations_s name =
  Array.of_list (List.filter_map (fun s -> if s.name = name then Some (duration_s s) else None) (all ()))

(* Length of the union of [intervals]: pipelined children overlap. *)
let covered_ns intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (la, lb) -> total +. (lb -. la) | None -> total

(* A layer's self time: the summed duration of its spans minus the part
   of each span's interval that its children cover. *)
let self_s_by_layer () =
  let spans = all () in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns) :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let covered = covered_ns (Option.value (Hashtbl.find_opt children s.id) ~default:[]) in
      let self = duration_s s -. (covered /. 1e9) in
      let l = layer_of s.name in
      Hashtbl.replace by_layer l (self +. Option.value (Hashtbl.find_opt by_layer l) ~default:0.0))
    spans;
  fun layer -> Option.value (Hashtbl.find_opt by_layer layer) ~default:0.0

let write path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%.0f,\"stop_ns\":%.0f}\n"
            s.id s.parent s.name s.start_ns s.stop_ns)
        (all ()))
