(* The repository benchmark.

     bench.exe --workload webscale|tables|serve --seed N --seconds S --trace 0|1

   Generates the workload's inputs from the seed, runs it for about S
   seconds, checks the outputs, and prints as its last line one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics (from spans recorded around the
   calls into each lib/ layer) with --trace 1.  The line before it is a
   JSON report with the run context and the workload's own figures.  A
   failed check prints no result and exits 2. *)

open Common

let workloads = [ ("webscale", Webscale.run); ("tables", Tables.run); ("serve", Serve.run) ]
let layers = [ "graph"; "core"; "bitset"; "parallel"; "spectral"; "server" ]

let usage () =
  prerr_endline "usage: bench.exe --workload webscale|tables|serve --seed N --seconds S --trace 0|1";
  exit 64

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.starts_with ~prefix:"--" flag -> go ((flag, value) :: acc) rest
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get flag = match List.assoc_opt flag args with Some v -> v | None -> usage () in
  let int_arg flag = match int_of_string_opt (get flag) with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  let seconds = int_arg "--seconds" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  (workload, run, int_arg "--seed", seconds, trace)

(* Metrics every workload reports; a layer a workload does not call
   reads 0 on it, which marks that workload as the layer's control. *)
let layer_metrics =
  [
    ("graph.gen_s", "s"); ("graph.ingest_s", "s"); ("graph.ingest_medges_per_s", "Medges/s");
    ("graph.cgr_write_s", "s"); ("graph.cgr_open_s", "s"); ("graph.bytes_per_entry", "B");
    ("core.keyed_step_ns_per_member", "ns"); ("core.keyed_bips_ns_per_vertex", "ns");
    ("core.seq_step_ns_per_member", "ns"); ("core.estimate_cover_s", "s");
    ("core.estimate_infection_s", "s"); ("core.hitting_s", "s"); ("core.cover_rounds", "count");
    ("core.transmissions", "count"); ("core.dense_round_share", "share");
    ("bitset.visited_union_ns", "ns"); ("parallel.shard_speedup", "x");
    ("parallel.trials_per_s", "1/s"); ("spectral.lambda_s", "s"); ("server.exec_ms_p50", "ms");
    ("server.job_gen_ms", "ms"); ("server.wait_ms_p50", "ms"); ("server.wait_ms_p99", "ms");
    ("server.generator_lag_ms", "ms"); ("server.cache_hit_ratio", "share");
    ("server.overloaded", "count"); ("server.deduped", "count"); ("trace.overhead_share", "share");
  ]

let () =
  let workload, run, seed, seconds, trace = parse Sys.argv in
  (* Exit through at_exit, which removes the run's scratch directory. *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  let dir = fresh_dir ~workload ~seed in
  match run ~seed ~seconds ~trace ~dir with
  | exception Check_failed msg ->
      prerr_endline ("check failed: " ^ msg);
      exit 2
  | o ->
      let e2e =
        o.e2e @ [ ("peak_rss_mb", o.peak_rss_mb, "MB"); ("ok_share", ok_share o, "share") ]
      in
      List.iter
        (fun (name, _, _) ->
          if not (List.mem_assoc name layer_metrics) then failwith ("unlisted layer metric " ^ name))
        o.layers;
      let metrics =
        if not trace then e2e
        else begin
          let self_s = Spans.self_s_by_layer () in
          let out = ".perfbench-out" in
          if not (Sys.file_exists out) then Sys.mkdir out 0o755;
          Spans.write (Filename.concat out (Printf.sprintf "%s-%d.spans.jsonl" workload seed));
          List.map
            (fun (name, unit_) ->
              match List.find_opt (fun (n, _, _) -> n = name) o.layers with
              | Some m -> m
              | None -> (name, 0.0, unit_))
            layer_metrics
          @ List.map (fun l -> (l ^ ".self_s", self_s l, "s")) layers
        end
      in
      print_endline
        (Json.to_string
           (Json.Obj
              (o.report
              @ [ ("failures", Json.Obj (List.map (fun (k, c) -> (k, Json.Int c)) o.failures)) ])));
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool true);
                ("attempted", Json.Int o.attempted);
                ("failed", Json.Int (failed o));
                ("metrics", metrics_json metrics);
              ]))
