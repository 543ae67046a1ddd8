(* webscale: one big skewed-degree graph through the whole big-graph
   path.  SNAP text is written from the seed, then set-up ingests it
   (Graph_io.read_stream), packs it (Cgr.write) and opens it through
   mmap (Cgr.read_mmap); the measured phase runs keyed COBRA cover and
   BIPS infection trials over a pool of width nproc.  It is the only
   workload that reaches packed CSR, .cgr, keyed draws and the sharded
   dense-round kernel. *)

open Common
module Gen = Cobra_graph.Gen
module Graph = Cobra_graph.Graph
module Graph_io = Cobra_graph.Graph_io
module Cgr = Cobra_graph.Cgr
module Props = Cobra_graph.Props
module Bitset = Cobra_bitset.Bitset
module Process = Cobra_core.Process
module Estimate = Cobra_core.Estimate
module Bounds = Cobra_core.Bounds
module Pool = Cobra_parallel.Pool

let family = "ba:8"
let n_target = 125_009
let setup_reps = 9

(* The measured phase runs [pairs_per_second * seconds] cover/infection
   trial pairs, 1.5-7 a second on a 2-vCPU host depending on its moment:
   a fixed amount of work for a given --seconds, so that memory and
   percentiles do not follow the host's speed. *)
let pairs_per_second = 3.0

(* The keyed kernels' default threshold (Process.make_keyed_ctx):
   frontiers above it are dense rounds, which the estimator's auto-tuned
   context runs sharded or serial, whichever it measures faster. *)
let dense_threshold = 1024

(* Mean cover rounds of keyed COBRA (b = 2) from the double-sweep start
   on ba:8 with n = 125 009, over any seed; the process law fixes it, the
   RNG stream does not. *)
let cover_band = (30.0, 60.0)

(* Same n, m and CSR rows, whatever the storage of either graph. *)
let same_graph a b =
  let n = Graph.n a in
  let rec rows u =
    u = n
    || Graph.degree a u = Graph.degree b u
       && List.for_all
            (fun i -> Graph.neighbor a u i = Graph.neighbor b u i)
            (List.init (Graph.degree a u) Fun.id)
       && rows (u + 1)
  in
  n = Graph.n b && Graph.m a = Graph.m b && rows 0

(* SNAP text, one tab-separated edge per line, written without holding
   the whole file in memory. *)
let write_snap path g =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "# Nodes: %d Edges: %d\n" (Graph.n g) (Graph.m g);
      Graph.iter_edges g (fun u v -> Printf.fprintf oc "%d\t%d\n" u v))

type trial = { kind : [ `Cover | `Infection ]; seconds : float; result : Estimate.result }

let run_trial pool g ~start ~master_seed kind =
  let call () =
    match kind with
    | `Cover ->
        Spans.record "core.cover_time_keyed" (fun () ->
            Estimate.cover_time_keyed ~pool ~master_seed ~trials:1 ~start g)
    | `Infection ->
        Spans.record "core.infection_time_keyed" (fun () ->
            Estimate.infection_time_keyed ~pool ~master_seed ~trials:1 ~source:start g)
  in
  let result, seconds = time call in
  { kind; seconds; result }

(* Trial 0 of the estimator's master seed, replayed round by round
   through the public keyed step API, on a context built as the
   estimator builds it (the pool, the auto-tuned dense path).  Each dense
   round also runs on a context pinned to the sharded path and on one
   without the pool: the two time the sharding, and all three must give
   the same round. *)
let replay_cover pool g ~start ~master_seed =
  let n = Graph.n g in
  let master = Estimate.trial_master ~master_seed ~trial:0 in
  let tuned = Process.make_keyed_ctx ~pool g ~master in
  let sharded = Process.make_keyed_ctx ~pool ~dense_threshold g ~master in
  let serial = Process.make_keyed_ctx ~dense_threshold g ~master in
  let current = ref (Bitset.create n) and next = ref (Bitset.create n) in
  let check_next = Bitset.create n and visited = Bitset.create n in
  Bitset.add !current start;
  Bitset.add visited start;
  let branching = Process.Fixed 2 in
  let rounds = ref 0 and transmissions = ref 0 and dense_rounds = ref 0 in
  let dense_members = ref 0 and dense_tuned_s = ref 0.0 in
  let dense_sharded_s = ref 0.0 and dense_serial_s = ref 0.0 in
  let union_s = ref 0.0 and unions = ref 0 in
  let union_reps = 64 in
  while Bitset.cardinal visited < n do
    incr rounds;
    let members = Bitset.cardinal !current in
    let round = !rounds in
    let sent, step_s =
      time (fun () ->
          Spans.record "core.cobra_step_keyed" (fun () ->
              Process.cobra_step_keyed g tuned ~round ~branching ~lazy_:false ~current:!current
                ~next:!next))
    in
    transmissions := !transmissions + sent;
    if members > dense_threshold then begin
      incr dense_rounds;
      dense_members := !dense_members + members;
      dense_tuned_s := !dense_tuned_s +. step_s;
      let same_round ctx what span =
        let sent', s =
          time (fun () ->
              Spans.record span (fun () ->
                  Process.cobra_step_keyed g ctx ~round ~branching ~lazy_:false ~current:!current
                    ~next:check_next))
        in
        check (sent = sent' && Bitset.equal !next check_next)
          "webscale: keyed round %d differs %s" round what;
        s
      in
      dense_sharded_s :=
        !dense_sharded_s +. same_round sharded "on the sharded path" "core.cobra_step_keyed_sharded";
      dense_serial_s :=
        !dense_serial_s +. same_round serial "without the pool" "core.cobra_step_keyed_nopool"
    end;
    let tmp = !current in
    current := !next;
    next := tmp;
    (* Union is idempotent, so repeating it times one call without
       changing the replay. *)
    let (), s =
      time (fun () ->
          Spans.record "bitset.union_into" (fun () ->
              for _ = 1 to union_reps do
                Bitset.union_into ~into:visited !current
              done))
    in
    union_s := !union_s +. s;
    unions := !unions + union_reps;
    check (!rounds <= Cobra_core.Cobra.default_max_rounds g) "webscale: replay did not cover"
  done;
  ( !rounds,
    !transmissions,
    [
      ( "core.keyed_step_ns_per_member",
        !dense_tuned_s *. 1e9 /. float_of_int (max 1 !dense_members),
        "ns" );
      ("bitset.visited_union_ns", !union_s *. 1e9 /. float_of_int !unions, "ns");
      ("core.dense_round_share", float_of_int !dense_rounds /. float_of_int !rounds, "share");
      ( "parallel.shard_speedup",
        (if !dense_sharded_s > 0.0 then !dense_serial_s /. !dense_sharded_s else 0.0),
        "x" );
    ] )

let replay_infection pool g ~source ~master_seed =
  let n = Graph.n g in
  let master = Estimate.trial_master ~master_seed ~trial:0 in
  let ctx = Process.make_keyed_ctx ~pool g ~master in
  let current = ref (Bitset.create n) and next = ref (Bitset.create n) in
  Bitset.add !current source;
  let rounds = ref 0 and step_s = ref 0.0 in
  while Bitset.cardinal !current < n do
    incr rounds;
    let round = !rounds in
    let (), s =
      time (fun () ->
          Spans.record "core.bips_step_keyed" (fun () ->
              Process.bips_step_keyed g ctx ~round ~branching:(Process.Fixed 2) ~lazy_:false
                ~source ~current:!current ~next:!next))
    in
    step_s := !step_s +. s;
    let tmp = !current in
    current := !next;
    next := tmp;
    check (!rounds <= Cobra_core.Cobra.default_max_rounds g) "webscale: BIPS replay did not finish"
  done;
  (!rounds, !step_s *. 1e9 /. float_of_int (!rounds * n))

let run ~seed ~seconds ~trace ~dir =
  Spans.enabled := trace;
  (* Inputs, from the seed, before any timing. *)
  let generated, gen_s =
    time (fun () ->
        Spans.record "graph.gen" (fun () ->
            Gen.by_name family ~n:n_target (Cobra_prng.Rng.create seed)))
  in
  let snap = Filename.concat dir "web.snap" in
  write_snap snap generated;
  (* Set-up: ingest, pack, open; repeated, each into a fresh .cgr.  It
     runs before the pool exists, as a single-domain load would: with
     idle pool domains every minor collection also waits for them. *)
  let (ingested, g), setup_times =
    repeat_setup setup_reps (fun i ->
        let ingested =
          Spans.record "graph.read_stream" (fun () ->
              In_channel.with_open_bin snap Graph_io.read_stream)
        in
        let cgr = Filename.concat dir (Printf.sprintf "web-%d.cgr" i) in
        Spans.record "graph.cgr_write" (fun () -> Cgr.write cgr ingested);
        (ingested, Spans.record "graph.cgr_read_mmap" (fun () -> Cgr.read_mmap cgr)))
  in
  let setup_s = median setup_times in
  check (same_graph generated ingested) "webscale: ingested graph differs from the generated one";
  check (same_graph generated g) "webscale: mmap-opened graph differs from the generated one";
  check (Graph.is_packed g) "webscale: the .cgr graph is not packed";
  let n = Graph.n g and m = Graph.m g in
  let start = Estimate.start_heuristic g in
  let ecc = Props.eccentricity g start in
  let pool = Spans.record "parallel.pool_create" (fun () -> Pool.create ~num_domains:(nproc - 1) ()) in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Spans.enabled := false;
  (* Trial master seeds: op i uses master seed [base + i]. *)
  let base = (seed * 7_919) land 0xFFFF_FFFF in
  ignore (run_trial pool g ~start ~master_seed:(base - 1) `Cover : trial);
  ignore (run_trial pool g ~start ~master_seed:(base - 1) `Infection : trial);
  (* Measured phase: cover and infection trials alternate.  A traced run
     runs each pair untraced, then traced, on the same master seed, so the
     two halves do identical work. *)
  let untraced = Queue.create () and traced = Queue.create () in
  (* Each pair starts from a collected heap, so that memory does not
     depend on when the GC last ran. *)
  let run_pair into ~master_seed =
    Gc.full_major ();
    Queue.add (run_trial pool g ~start ~master_seed `Cover) into;
    Queue.add (run_trial pool g ~start ~master_seed `Infection) into
  in
  for i = 0 to max 1 (int_of_float (pairs_per_second *. float_of_int seconds)) - 1 do
    run_pair untraced ~master_seed:(base + i);
    if trace then begin
      Spans.enabled := true;
      run_pair traced ~master_seed:(base + i);
      Spans.enabled := false
    end
  done;
  let rss = peak_rss_mb () in
  let trials = Array.of_seq (Queue.to_seq untraced) in
  let of_kind k = Array.of_list (List.filter (fun t -> t.kind = k) (Array.to_list trials)) in
  let covers = of_kind `Cover and infections = of_kind `Infection in
  let censored ts = Array.fold_left (fun acc t -> acc + t.result.censored) 0 ts in
  let failures = [ ("censored_cover", censored covers); ("censored_infection", censored infections) ] in
  check
    (censored covers + censored infections = 0)
    "webscale: %d cover and %d infection trials censored" (censored covers) (censored infections);
  let rounds_of ts = Array.map (fun t -> t.result.summary.mean) ts in
  let cover_mean = mean (rounds_of covers) in
  let lower = Bounds.lower_bound ~n ~diameter:ecc in
  let upper = Bounds.this_paper_general ~n ~m ~dmax:(Graph.max_degree g) in
  check (cover_mean >= lower && cover_mean <= upper)
    "webscale: mean cover %.2f outside [%.2f, %.2f] (lower bound, Thm 1.1)" cover_mean lower upper;
  check (cover_mean >= fst cover_band && cover_mean <= snd cover_band)
    "webscale: mean cover %.2f outside the reference band [%.0f, %.0f]" cover_mean (fst cover_band)
    (snd cover_band);
  let lat_ms ts = Array.map (fun t -> t.seconds *. 1e3) ts in
  let all_ms = lat_ms trials in
  let busy_s ts = sum (Array.map (fun t -> t.seconds) ts) in
  let kind_rate ts = float_of_int (Array.length ts) /. busy_s ts in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("throughput_per_s", segment_rate (Array.map (fun t -> t.seconds) trials), "1/s");
      ("p50_ms", median all_ms, "ms");
    ]
  in
  let layers =
    if not trace then []
    else begin
      let first_cover = covers.(0).result.summary.mean in
      let first_infection = infections.(0).result.summary.mean in
      let traced_s = Seq.fold_left (fun acc t -> acc +. t.seconds) 0.0 (Queue.to_seq traced) in
      let ingest = median (Spans.durations_s "graph.read_stream") in
      Spans.enabled := true;
      let rounds, transmissions, replay_layers = replay_cover pool g ~start ~master_seed:base in
      let bips_rounds, bips_ns = replay_infection pool g ~source:start ~master_seed:base in
      Spans.enabled := false;
      check (float_of_int rounds = first_cover)
        "webscale: replayed cover took %d rounds, the estimator's trial 0 took %.0f" rounds first_cover;
      check (float_of_int bips_rounds = first_infection)
        "webscale: replayed infection took %d rounds, the estimator's trial 0 took %.0f" bips_rounds
        first_infection;
      [
        ("graph.gen_s", gen_s, "s");
        ("graph.ingest_s", ingest, "s");
        ("graph.ingest_medges_per_s", float_of_int m /. ingest /. 1e6, "Medges/s");
        ("graph.cgr_write_s", median (Spans.durations_s "graph.cgr_write"), "s");
        ("graph.cgr_open_s", median (Spans.durations_s "graph.cgr_read_mmap"), "s");
        ("graph.bytes_per_entry", float_of_int (Graph.storage_bytes g) /. float_of_int (2 * m), "B");
        ("core.keyed_bips_ns_per_vertex", bips_ns, "ns");
        ("core.estimate_cover_s", median (Spans.durations_s "core.cover_time_keyed"), "s");
        ("core.estimate_infection_s", median (Spans.durations_s "core.infection_time_keyed"), "s");
        ("core.cover_rounds", float_of_int rounds, "count");
        ("core.transmissions", float_of_int transmissions, "count");
        ("parallel.trials_per_s", float_of_int (Queue.length traced) /. traced_s, "1/s");
        ("trace.overhead_share", (traced_s /. busy_s trials) -. 1.0, "share");
      ]
      @ replay_layers
    end
  in
  {
    attempted = Array.length trials;
    peak_rss_mb = rss;
    failures;
    e2e;
    layers;
    report =
      [
        ( "context",
          context ~workload:"webscale" ~seed ~seconds ~pool_width:(Pool.size pool)
            ~working_set_bytes:(Graph.storage_bytes g + (3 * n / 8)) );
        ( "figures",
          figures
            [
              ("n", float_of_int n);
              ("m", float_of_int m);
              ("cover_trials_per_s", kind_rate covers);
              ("infection_trials_per_s", kind_rate infections);
              ("cover_p50_ms", median (lat_ms covers));
              ("infection_p50_ms", median (lat_ms infections));
              ("cover_mean_rounds", cover_mean);
              ("infection_mean_rounds", mean (rounds_of infections));
              ("trials", float_of_int (Array.length trials));
              ("p90_ms", quantile all_ms 0.9);
            ] );
      ];
  }
