(* Shared plumbing of the workloads: timing, checks, failure accounting,
   the run context and the result record. *)

module Json = Cobra_obs.Json
module Timer = Cobra_obs.Timer
module Quantile = Cobra_stats.Quantile

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let time f =
  let t = Timer.start () in
  let r = f () in
  (r, Timer.elapsed_s t)

(* Runs [setup] [reps] times and returns the last result with every
   repetition's seconds.  With [collect] (the default), a full collection
   before each repetition frees the previous one's garbage (after
   [release]), so memory does not depend on when the GC last ran.  A
   set-up that leaves little garbage passes [~collect:false]: dozens of
   forced collections of a near-empty heap were followed by a first
   major cycle that let the heap grow 3-4x before it finished, and the
   peak RSS then depended on when that cycle ended. *)
let repeat_setup reps ?(collect = true) ?(release = ignore) setup =
  let rec go i times =
    if collect then Gc.full_major ();
    let r, s = time (fun () -> setup i) in
    if i + 1 = reps then (r, Array.of_list (s :: times))
    else begin
      release r;
      go (i + 1) (s :: times)
    end
  in
  go 0 []

let median xs = if Array.length xs = 0 then 0.0 else Quantile.median xs
let quantile xs q = if Array.length xs = 0 then 0.0 else Quantile.quantile xs q
let sum xs = Array.fold_left ( +. ) 0.0 xs
let mean xs = if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)

(* Operations per second: the median over ten consecutive segments of
   each segment's rate, so that a stall of the host during part of a run
   moves one segment rather than the figure.  [gaps] holds the seconds
   each operation took, in order. *)
let segment_rate gaps =
  let per = max 1 (Array.length gaps / 10) in
  median
    (Array.init (Array.length gaps / per) (fun k ->
         float_of_int per /. sum (Array.sub gaps (k * per) per)))

let nproc = Domain.recommended_domain_count ()

(* Per-run scratch directory inside the checkout, removed at exit, so no
   run sees an earlier run's .cgr files or journals. *)
let scratch_root = ".perfbench-tmp"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir ~workload ~seed =
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  let dir =
    Filename.concat scratch_root (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ()))
  in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      remove_tree dir;
      try Sys.rmdir scratch_root with Sys_error _ -> ());
  dir

let proc_status_kb key =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some line when String.starts_with ~prefix:(key ^ ":") line ->
              let prefix = String.length key + 1 in
              Scanf.sscanf (String.sub line prefix (String.length line - prefix)) " %d" (fun kb -> Some kb)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None

let peak_rss_mb () =
  match proc_status_kb "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> raise (Check_failed "peak RSS unavailable (no /proc/self/status VmHWM)")

let cache_bytes level =
  let base = "/sys/devices/system/cpu/cpu0/cache" in
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all)) with Sys_error _ -> None
  in
  let parse s =
    Scanf.sscanf s "%d%s" (fun v unit_ ->
        match unit_ with "K" -> v * 1024 | "M" -> v * 1024 * 1024 | _ -> v)
  in
  let rec scan i =
    let dir = Printf.sprintf "%s/index%d" base i in
    if not (Sys.file_exists dir) then None
    else
      match (read (dir ^ "/level"), read (dir ^ "/type"), read (dir ^ "/size")) with
      | Some l, Some t, Some s when l = string_of_int level && t <> "Instruction" -> (
          try Some (parse s) with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      | _ -> scan (i + 1)
  in
  scan 0

let context ~workload ~seed ~seconds ~pool_width ~working_set_bytes =
  let opt_int = function Some v -> Json.Int v | None -> Json.Null in
  Json.Obj
    [
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("git_revision", Json.String (Cobra_obs.Manifest.git_revision ()));
      ("nproc", Json.Int nproc);
      ("pool_width", Json.Int pool_width);
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("dune_profile", Json.String Build_info.profile);
      ("l2_bytes", opt_int (cache_bytes 2));
      ("l3_bytes", opt_int (cache_bytes 3));
      ("working_set_bytes", Json.Int working_set_bytes);
    ]

(* One sequential-stream COBRA cover run from [start], stepped through
   the public kernel.  Returns the step's seconds and frontier members
   summed over rounds, and the visited-set union's seconds and calls;
   the union is repeated [union_reps] times a round (it is idempotent)
   so that one call is long enough to time. *)
let union_reps = 16

let seq_cover_probe g rng ~start =
  let module Bitset = Cobra_bitset.Bitset in
  let module Process = Cobra_core.Process in
  let n = Cobra_graph.Graph.n g in
  let scratch = Array.make Process.sparse_frontier_threshold 0 in
  let current = ref (Bitset.create n) and next = ref (Bitset.create n) and visited = Bitset.create n in
  Bitset.add !current start;
  Bitset.add visited start;
  let step_s = ref 0.0 and members = ref 0 and union_s = ref 0.0 and unions = ref 0 in
  while Bitset.cardinal visited < n do
    members := !members + Bitset.cardinal !current;
    let _, s =
      time (fun () ->
          Spans.record "core.cobra_step" (fun () ->
              Process.cobra_step ~scratch g rng ~branching:(Process.Fixed 2) ~lazy_:false
                ~current:!current ~next:!next))
    in
    step_s := !step_s +. s;
    let tmp = !current in
    current := !next;
    next := tmp;
    let (), s =
      time (fun () ->
          Spans.record "bitset.union_into" (fun () ->
              for _ = 1 to union_reps do
                Bitset.union_into ~into:visited !current
              done))
    in
    union_s := !union_s +. s;
    unions := !unions + union_reps
  done;
  (!step_s, !members, !union_s, !unions)

let seq_probe_metrics runs =
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  [
    ( "core.seq_step_ns_per_member",
      total (fun (s, _, _, _) -> s) *. 1e9 /. total (fun (_, m, _, _) -> float_of_int m),
      "ns" );
    ( "bitset.visited_union_ns",
      total (fun (_, _, s, _) -> s) *. 1e9 /. total (fun (_, _, _, u) -> float_of_int u),
      "ns" );
  ]

(* What a workload hands back.  [failures] names every failure kind with
   its count; [peak_rss_mb] is read when the measured phase ends, before
   the checks; [e2e] and [layers] are (name, value, unit); [report] holds
   the workload's own named figures, printed before the result line. *)
type outcome = {
  attempted : int;
  peak_rss_mb : float;
  failures : (string * int) list;
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
  report : (string * Json.t) list;
}

let failed o = List.fold_left (fun acc (_, c) -> acc + c) 0 o.failures
let ok_share o = float_of_int (o.attempted - failed o) /. float_of_int o.attempted

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (name, v, u) -> (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
       ms)

let figures fs = Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) fs)
