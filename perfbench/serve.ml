(* serve: an in-process Server on an ephemeral port with a fresh journal
   directory, driven over loopback by a seeded job mix: about 80%
   resubmits of a small hot set (cache hits) and about 20% distinct
   hypercube cover jobs (misses that execute on the server's pool).  An
   open loop at a fixed arrival rate measures latency from each
   request's due time; a closed loop on nproc connections measures the
   highest completed rate.  It is the only workload through wire, proto,
   sched and cache. *)

open Common
module Server = Cobra_server.Server
module Proto = Cobra_server.Proto
module Wire = Cobra_server.Wire
module Gen = Cobra_graph.Gen
module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Process = Cobra_core.Process
module Estimate = Cobra_core.Estimate
module Pool = Cobra_parallel.Pool

let family = "hypercube"
let job_n = 1024
let job_trials = 8
let hot_jobs = 8
let miss_every = 5
(* Start to first pong takes ~0.5 ms, mostly domain spawns and loopback
   wake-ups that the host's scheduler jitters; many repetitions cost
   little and steady the median. *)
let setup_reps = 41

(* The server's pool has one worker, the caller: with the in-process
   client, the serve loop and the executor already three domains share a
   2-CPU host, every minor collection stops all of them, and a second
   pool worker made misses slower (~16 ms against ~13 ms) and latencies
   less repeatable.  Pool width 2 is measured by webscale and tables. *)
let pool_domains = 0

(* Open-loop arrivals per second: a miss executes in ~13 ms and one
   request in five is a miss, so the executor is ~26% busy and, misses
   being 50 ms apart, none waits for another.  At 150 requests/s (~40%)
   a host running 2.5x slower for a while saturated the executor and
   the misses' median rose from ~13 to 30-70 ms; at this rate such a
   stretch slows misses without queueing them.  The open loop sends
   [open_rate * seconds / 2] requests, at least [open_min_requests] so
   that p99 has ten samples beyond it. *)
let open_rate = 100.0
let open_min_requests = 1_000

(* The closed loop sends [closed_per_second * seconds] requests, about
   [seconds / 2] of work at ~500 requests/s: a fixed number rather than a
   fixed time, because the journal keeps every completed trial in memory
   and a time-bound phase would make peak RSS follow the host's speed. *)
let closed_per_second = 250.0

(* The two phases are cut into [blocks] that alternate (open, closed,
   open, ...), so that each phase's figure samples the whole run: the
   host's speed drifts over seconds, and a phase run in one stretch
   measured only its own part of the drift. *)
let blocks = 4

let job master_seed =
  {
    Proto.kind = Proto.Cover_time;
    graph = { Proto.family; n = job_n; gseed = 0 };
    branching = Process.Fixed 2;
    lazy_ = false;
    max_rounds = None;
    trials = job_trials;
    master_seed;
  }

(* A connection that can be multiplexed with select: frames go through
   the server layer's Wire and Proto codecs. *)
type conn = { fd : Unix.file_descr; mutable next_id : int }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; next_id = 0 }

let send conn req =
  let id = string_of_int conn.next_id in
  conn.next_id <- conn.next_id + 1;
  Wire.write_frame conn.fd (Json.to_string (Proto.request_to_json ~id req));
  id

let recv conn =
  match Result.bind (Json.of_string (Wire.read_frame conn.fd)) Proto.response_of_json with
  | Ok r -> r
  | Error m -> raise (Check_failed ("serve: malformed response: " ^ m))

let request conn req =
  let id = send conn req in
  let rid, resp = recv conn in
  check (rid = id) "serve: response id %s to request %s" rid id;
  resp

(* The job stream: every fifth request is a miss (a master seed never
   used before), the others resubmit a hot-set job drawn from the seed.
   Spacing the misses evenly keeps them from queueing behind one another
   in the open loop, where random placement put the miss p90 between a
   waited and an unwaited mode. *)
let job_stream ~seed =
  let rng = Rng.create (seed + 101) in
  let base = seed * 1_000_003 in
  let hot = Array.init hot_jobs (fun i -> base + i) in
  let sent = ref 0 in
  let next () =
    incr sent;
    if !sent mod miss_every = 0 then base + hot_jobs + (!sent / miss_every) else Rng.pick rng hot
  in
  (hot, next)

let start_server journal =
  let server =
    Spans.record "server.start" (fun () ->
        Server.start
          { Server.default_config with pool_domains = Some pool_domains; journal_dir = Some journal })
  in
  let conn = connect (Server.port server) in
  (match Spans.record "server.ping" (fun () -> request conn Proto.Ping) with
  | Proto.Pong -> ()
  | _ -> raise (Check_failed "serve: ping did not answer pong"));
  (server, conn)

let stop_server (server, conn) =
  Unix.close conn.fd;
  Server.stop server

type sample = {
  master_seed : int;
  due : float;
  sent : float;
  received : float;
  response : Proto.response;
}

let now_s () = Spans.now_ns () /. 1e9

(* Drives one phase of [count] requests over [conns], single-threaded
   with select.  With [due], request i is sent at [due i] whatever is
   still in flight (open loop); without it, a connection sends as soon
   as its previous request is answered (closed loop).  Returns once
   every request has its response. *)
let drive conns ~deadline ~next_job ~count ?due () =
  let k = Array.length conns in
  let in_flight = Hashtbl.create 64 in
  let busy = Array.make k false in
  let samples = ref [] and i = ref 0 in
  let submit c d =
    let master_seed = next_job () in
    let sent = now_s () in
    let id = send conns.(c) (Proto.Submit { job = job master_seed; deadline_s = None }) in
    Hashtbl.replace in_flight (c, id) (master_seed, Option.value d ~default:sent, sent);
    busy.(c) <- true;
    incr i
  in
  let receive c =
    let id, response = recv conns.(c) in
    let received = now_s () in
    let master_seed, due, sent =
      match Hashtbl.find_opt in_flight (c, id) with
      | Some v -> v
      | None -> raise (Check_failed ("serve: response to unknown request " ^ id))
    in
    Hashtbl.remove in_flight (c, id);
    busy.(c) <- false;
    Spans.add "server.request" ~start_ns:(due *. 1e9) ~stop_ns:(received *. 1e9);
    samples := { master_seed; due; sent; received; response } :: !samples
  in
  while !i < count || Hashtbl.length in_flight > 0 do
    check (now_s () < deadline) "serve: a phase overran its time limit";
    let timeout =
      match due with
      | Some due when !i < count ->
          let d = due !i in
          if now_s () >= d then submit (!i mod k) (Some d);
          if !i < count then Float.max 0.0 (due !i -. now_s ()) else 0.5
      | _ ->
          Array.iteri (fun c b -> if (not b) && !i < count then submit c None) busy;
          0.5
    in
    let ready, _, _ =
      try Unix.select (Array.to_list (Array.map (fun c -> c.fd) conns)) [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter (fun fd -> Array.iteri (fun c conn -> if conn.fd = fd then receive c) conns) ready
  done;
  Array.of_list (List.rev !samples)

let result_of s = match s.response with Proto.Result { result; _ } -> Some result | _ -> None
let server_ms s = match s.response with Proto.Result { server_ms; _ } -> server_ms | _ -> 0.0
let is_hit s = match s.response with Proto.Result { cached; _ } -> cached | _ -> false
let latency_ms s = (s.received -. s.due) *. 1e3

let error_kind s =
  match s.response with
  | Proto.Error { code; _ } -> Some (Proto.error_code_to_string code)
  | Proto.Result _ -> None
  | Proto.Pong | Proto.Stats_reply _ -> Some "unexpected_reply"

let stat j path =
  let rec go j = function
    | [] -> Json.to_int_opt j
    | k :: rest -> Option.bind (Json.member j k) (fun v -> go v rest)
  in
  match go j path with
  | Some v -> v
  | None -> raise (Check_failed ("serve: stats reply lacks " ^ String.concat "." path))

(* Runs every distinct served job in-process and checks that each
   response equals it. *)
let check_results pool samples =
  let g = Gen.by_name family ~n:job_n (Rng.create 0) in
  let expected = Hashtbl.create 256 and estimate_s = ref [] in
  Array.iter
    (fun s ->
      match result_of s with
      | None -> ()
      | Some got ->
          let want =
            match Hashtbl.find_opt expected s.master_seed with
            | Some r -> r
            | None ->
                let est, secs =
                  time (fun () ->
                      Spans.record "core.cover_time" (fun () ->
                          Estimate.cover_time ~pool ~master_seed:s.master_seed ~trials:job_trials g))
                in
                estimate_s := secs :: !estimate_s;
                let r = Proto.job_result_of_estimate ~n:(Graph.n g) est in
                Hashtbl.replace expected s.master_seed r;
                r
          in
          check (compare got want = 0)
            "serve: served result for master seed %d differs from Estimate.cover_time" s.master_seed)
    samples;
  (g, expected, Array.of_list !estimate_s)

let run ~seed ~seconds ~trace ~dir =
  Spans.enabled := trace;
  (* Set-up: server start to first pong, each on a fresh journal. *)
  let (server, first), setup_times =
    repeat_setup setup_reps ~collect:false ~release:stop_server (fun i ->
        let journal = Filename.concat dir (Printf.sprintf "journal-%d" i) in
        Sys.mkdir journal 0o755;
        start_server journal)
  in
  let setup_s = median setup_times in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let conns = Array.init nproc (fun c -> if c = 0 then first else connect (Server.port server)) in
  let hot, next_job = job_stream ~seed in
  (* Warm the hot set, untimed: after this every hot resubmit is a hit. *)
  Spans.enabled := false;
  let warm =
    Array.map (fun s -> request conns.(0) (Proto.Submit { job = job s; deadline_s = None })) hot
  in
  Array.iter
    (function Proto.Result _ -> () | _ -> raise (Check_failed "serve: warming the hot set failed"))
    warm;
  let limit = float_of_int seconds +. 30.0 in
  let open_block =
    max open_min_requests (int_of_float (open_rate *. float_of_int seconds /. 2.0)) / blocks
  in
  let closed_block = int_of_float (closed_per_second *. float_of_int seconds) / blocks in
  (* Open loop: one request every 1 / [open_rate] seconds. *)
  let open_loop () =
    let t0 = now_s () +. 0.01 in
    Spans.enabled := trace;
    let samples =
      Spans.record "server.open_loop" (fun () ->
          drive conns ~deadline:(t0 +. limit) ~next_job ~count:open_block
            ~due:(fun i -> t0 +. (float_of_int i /. open_rate))
            ())
    in
    Spans.enabled := false;
    samples
  in
  (* Closed loop: each connection sends its next request as soon as the
     previous one is answered.  Returns the samples and the gap before
     each response.  A traced run sends half of each block untraced,
     then half traced. *)
  let closed ~traced count =
    Spans.enabled := traced;
    let c0 = now_s () in
    let samples =
      Spans.record "server.closed_loop" (fun () ->
          drive conns ~deadline:(c0 +. limit) ~next_job ~count ())
    in
    Spans.enabled := false;
    let times = Array.map (fun s -> s.received) samples in
    Array.sort compare times;
    (samples, Array.mapi (fun i t -> t -. if i = 0 then c0 else times.(i - 1)) times)
  in
  let open_parts = ref [] and closed_parts = ref [] in
  let untraced_gaps = ref [] and traced_gaps = ref [] in
  for _ = 1 to blocks do
    open_parts := open_loop () :: !open_parts;
    if trace then begin
      let a, gaps_a = closed ~traced:false (closed_block / 2) in
      let b, gaps_b = closed ~traced:true (closed_block / 2) in
      closed_parts := b :: a :: !closed_parts;
      untraced_gaps := gaps_a :: !untraced_gaps;
      traced_gaps := gaps_b :: !traced_gaps
    end
    else begin
      let a, gaps = closed ~traced:false closed_block in
      closed_parts := a :: !closed_parts;
      untraced_gaps := gaps :: !untraced_gaps
    end
  done;
  let in_order parts = Array.concat (List.rev !parts) in
  let open_samples = in_order open_parts and closed_samples = in_order closed_parts in
  let throughput = segment_rate (in_order untraced_gaps) in
  let trace_overhead =
    if trace then (throughput /. segment_rate (in_order traced_gaps)) -. 1.0 else 0.0
  in
  let stats =
    match request conns.(0) Proto.Stats with
    | Proto.Stats_reply j -> j
    | _ -> raise (Check_failed "serve: stats request failed")
  in
  let rss = peak_rss_mb () in
  Array.iter (fun c -> Unix.close c.fd) conns;
  Server.stop server;
  let samples = Array.append open_samples closed_samples in
  let sent = (blocks * open_block) + (blocks * if trace then 2 * (closed_block / 2) else closed_block) in
  let count p xs = Array.fold_left (fun acc s -> if p s then acc + 1 else acc) 0 xs in
  let ok = count (fun s -> result_of s <> None) samples in
  let failures =
    List.map
      (fun k -> (k, count (fun s -> error_kind s = Some k) samples))
      (List.sort_uniq compare ("overloaded" :: List.filter_map error_kind (Array.to_list samples)))
  in
  let overloaded = List.assoc "overloaded" failures in
  let errors = List.fold_left (fun acc (_, c) -> acc + c) 0 failures - overloaded in
  check (Array.length samples = sent) "serve: %d responses to %d requests" (Array.length samples) sent;
  (* The client's view against the server's counters.  The server files
     each submit once: a bad request, a cache hit, or a miss that is
     deduplicated onto a pending job, refused as overloaded, or accepted
     and then completed or failed.  A completed or failed job answers its
     submitter and every deduplicated waiter. *)
  let hits = count is_hit samples and submits = sent + Array.length hot in
  let server_hits = stat stats [ "cache"; "hits" ] in
  let server_misses = stat stats [ "cache"; "misses" ] in
  let s_bad = stat stats [ "bad_requests" ] and s_overloaded = stat stats [ "overloaded" ] in
  let s_accepted = stat stats [ "accepted" ] and s_deduped = stat stats [ "deduped" ] in
  let s_completed = stat stats [ "completed" ] and s_failed = stat stats [ "failed" ] in
  check (server_hits = hits) "serve: server counted %d cache hits, the client saw %d" server_hits hits;
  check (server_misses = submits - hits) "serve: server counted %d cache misses, expected %d"
    server_misses (submits - hits);
  check
    (submits = s_bad + server_hits + s_deduped + s_overloaded + s_accepted)
    "serve: the client sent %d submits, the server filed %d bad + %d hits + %d deduped + %d \
     overloaded + %d accepted"
    submits s_bad server_hits s_deduped s_overloaded s_accepted;
  check
    (s_accepted = s_completed + s_failed)
    "serve: %d accepted jobs, %d completed + %d failed" s_accepted s_completed s_failed;
  check (overloaded = s_overloaded) "serve: the client saw %d overloaded, the server counted %d"
    overloaded s_overloaded;
  (* ok counts the warm-up's hot-set results too. *)
  let ok_all = ok + Array.length hot in
  check
    (ok_all >= server_hits + s_completed && ok_all <= server_hits + s_completed + s_deduped)
    "serve: the client got %d results, the server sent %d hits + %d completed (+ up to %d deduped)"
    ok_all server_hits s_completed s_deduped;
  check
    (errors >= s_bad + s_failed && errors <= s_bad + s_failed + s_deduped)
    "serve: the client got %d errors, the server counted %d bad + %d failed (+ up to %d deduped)"
    errors s_bad s_failed s_deduped;
  let pool = Spans.record "parallel.pool_create" (fun () -> Pool.create ~num_domains:(nproc - 1) ()) in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let warm_samples =
    Array.mapi
      (fun i response -> { master_seed = hot.(i); due = 0.0; sent = 0.0; received = 0.0; response })
      warm
  in
  Spans.enabled := trace;
  let g, expected, estimate_s = check_results pool (Array.append warm_samples samples) in
  Spans.enabled := false;
  let filter p xs = Array.of_list (List.filter p (Array.to_list xs)) in
  let open_ok = filter (fun s -> result_of s <> None) open_samples in
  let open_ms = Array.map latency_ms open_samples in
  let misses = filter (fun s -> not (is_hit s)) open_ok in
  let lag_ms = Array.map (fun s -> (s.sent -. s.due) *. 1e3) open_samples in
  (* The gated latency is the misses' median.  The median over all
     requests is a hit's loopback round trip, ~0.3 ms, and over ten seeds
     it spread by 29% of its median with the host's wake-up latency; the
     p90 of misses spread by 41% and the overall p99 by 20-37%.  They are
     reported, not gated. *)
  let miss_ms = Array.map latency_ms misses in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("throughput_per_s", throughput, "1/s");
      ("p50_ms", median miss_ms, "ms");
    ]
  in
  let layers =
    if not trace then []
    else begin
      Spans.enabled := true;
      let job_gen_s =
        Array.init 5 (fun _ ->
            snd
              (time (fun () ->
                   Spans.record "graph.gen" (fun () -> Gen.by_name family ~n:job_n (Rng.create 0)))))
      in
      let rng = Rng.create (seed + 17) in
      let probe = seq_probe_metrics (List.init 20 (fun _ -> seq_cover_probe g rng ~start:0)) in
      Spans.enabled := false;
      let wait_ms = Array.map (fun s -> latency_ms s -. server_ms s) open_ok in
      (* Totals over the hot set's cover trials: exact counts. *)
      let hot_total (field : Proto.job_result -> float) =
        Float.round
          (Array.fold_left
             (fun acc s -> acc +. (field (Hashtbl.find expected s) *. float_of_int job_trials))
             0.0 hot)
      in
      [
        ("graph.gen_s", median job_gen_s, "s");
        ( "graph.bytes_per_entry",
          float_of_int (Graph.storage_bytes g) /. float_of_int (2 * Graph.m g),
          "B" );
        ("core.estimate_cover_s", median estimate_s, "s");
        ("core.cover_rounds", hot_total (fun r -> r.mean), "count");
        ("core.transmissions", hot_total (fun r -> r.mean_transmissions), "count");
        ( "parallel.trials_per_s",
          float_of_int (job_trials * Array.length estimate_s) /. sum estimate_s,
          "1/s" );
        ("server.exec_ms_p50", median (Array.map server_ms misses), "ms");
        ("server.job_gen_ms", median job_gen_s *. 1e3, "ms");
        ("server.wait_ms_p50", median wait_ms, "ms");
        ("server.wait_ms_p99", quantile wait_ms 0.99, "ms");
        ("server.generator_lag_ms", quantile lag_ms 0.99, "ms");
        ( "server.cache_hit_ratio",
          float_of_int server_hits /. float_of_int (server_hits + server_misses),
          "share" );
        ("server.overloaded", float_of_int (stat stats [ "overloaded" ]), "count");
        ("server.deduped", float_of_int (stat stats [ "deduped" ]), "count");
        ("trace.overhead_share", trace_overhead, "share");
      ]
      @ probe
    end
  in
  {
    attempted = sent;
    peak_rss_mb = rss;
    failures;
    e2e;
    layers;
    report =
      [
        ( "context",
          context ~workload:"serve" ~seed ~seconds ~pool_width:(pool_domains + 1)
            ~working_set_bytes:(Graph.storage_bytes g) );
        ( "figures",
          figures
            [
              ("serve_p50_ms", median open_ms);
              ("serve_p90_ms", quantile open_ms 0.9);
              ("serve_p99_ms", quantile open_ms 0.99);
              ("serve_miss_p50_ms", median miss_ms);
              ("serve_miss_p90_ms", quantile miss_ms 0.9);
              ("serve_throughput_rps", throughput);
              ("open_loop_requests", float_of_int (Array.length open_samples));
              ("open_loop_rate", open_rate);
              ("open_loop_misses", float_of_int (Array.length misses));
              ("closed_loop_requests", float_of_int (Array.length closed_samples));
              ("closed_loop_connections", float_of_int nproc);
              ("generator_lag_ms_max", Array.fold_left Float.max 0.0 lag_ms);
              ("cache_hits", float_of_int server_hits);
              ("cache_misses", float_of_int server_misses);
            ] );
      ];
  }
