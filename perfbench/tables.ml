(* tables: the paper-table regime.  A fixed sweep over small graph
   families; for each one the spectral parameter, then Monte-Carlo cover
   and infection estimates (sequential streams, trials spread over the
   pool), plus one all-pairs hitting-time solve.  Small boxed or packed
   graphs that fit in cache, sparse frontiers on lollipop and cycle,
   trial-level parallelism and the spectral solvers; no keyed sharding,
   no .cgr, no server. *)

open Common
module Gen = Cobra_graph.Gen
module Graph = Cobra_graph.Graph
module Props = Cobra_graph.Props
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Process = Cobra_core.Process
module Estimate = Cobra_core.Estimate
module Bounds = Cobra_core.Bounds
module Walk_theory = Cobra_core.Walk_theory
module Eigen = Cobra_spectral.Eigen
module Pool = Cobra_parallel.Pool

let trials = 64
let setup_reps = 7

(* A sweep takes 5-10 s on a 2-vCPU host, depending on the host's moment;
   a run makes [seconds / 7] sweeps, rounded, at least one: a fixed amount
   of work for a given --seconds, so that memory does not follow the
   host's speed, and three sweeps at the default length for the per-step
   medians. *)
let sweep_nominal_s = 7.0

(* Family, requested n, and the band the mean cover rounds (COBRA b = 2
   from the double-sweep start, 64 trials) fall in for any seed.  The
   band is a property of the process law, not of the RNG stream. *)
let families =
  [
    ("regular-8", 4096, (15.0, 26.0));
    ("hypercube", 4096, (19.0, 30.0));
    ("torus2d", 4096, (75.0, 105.0));
    ("lollipop", 512, (550.0, 900.0));
    ("cycle", 512, (420.0, 600.0));
    ("chunglu:2.5", 2048, (100.0, 400.0));
  ]

(* lambda of the lazy walk where a closed form exists: the families with
   one are bipartite, so the plain walk's lambda is exactly 1. *)
let lazy_lambda_closed_form family g =
  let n = float_of_int (Graph.n g) in
  let pi = 4.0 *. atan 1.0 in
  match family with
  | "hypercube" -> Some (1.0 -. (1.0 /. Float.log2 n))
  | "torus2d" -> Some ((3.0 +. cos (2.0 *. pi /. sqrt n)) /. 4.0)
  | "cycle" -> Some ((1.0 +. cos (2.0 *. pi /. n)) /. 2.0)
  | _ -> None

(* Expected hitting times of the simple walk on the cycle: k (n - k) for
   vertices k steps apart. *)
let hitting_family = "cycle"

type graph_in = { family : string; g : Graph.t; start : int; master_seed : int; band : float * float }

type row = {
  lambda : float;
  lazy_lambda : float option;
  cover : Estimate.result;
  infection : Estimate.result;
}

let generate ~seed =
  List.mapi
    (fun j (family, n, band) ->
      let g =
        Spans.record "graph.gen" (fun () -> Gen.by_name family ~n (Rng.create ((seed * 1_009) + j)))
      in
      (family, g, band))
    families

(* One sweep; also returns each step's name and seconds, in a fixed
   order. *)
let sweep pool inputs =
  let steps = ref [] in
  let step name f =
    let r, s = time (fun () -> Spans.record name f) in
    steps := (name, s) :: !steps;
    r
  in
  let rows =
    List.map
      (fun gi ->
        let lambda = step "spectral.second_eigenvalue" (fun () -> Eigen.second_eigenvalue ~pool gi.g) in
        let lazy_lambda =
          if lazy_lambda_closed_form gi.family gi.g = None then None
          else
            Some
              (step "spectral.lazy_second_eigenvalue" (fun () ->
                   Eigen.lazy_second_eigenvalue ~pool gi.g))
        in
        let cover =
          step "core.cover_time" (fun () ->
              Estimate.cover_time ~pool ~master_seed:gi.master_seed ~trials ~start:gi.start gi.g)
        in
        let infection =
          step "core.infection_time" (fun () ->
              Estimate.infection_time ~pool ~master_seed:gi.master_seed ~trials ~source:gi.start gi.g)
        in
        { lambda; lazy_lambda; cover; infection })
      inputs
  in
  let hg = (List.find (fun gi -> gi.family = hitting_family) inputs).g in
  let hitting = step "core.all_hitting_times" (fun () -> Walk_theory.all_hitting_times ~pool hg) in
  (rows, hitting, Array.of_list (List.rev !steps))

let check_rows inputs rows =
  List.iter2
    (fun gi r ->
      let n = Graph.n gi.g and m = Graph.m gi.g in
      check
        (r.cover.censored = 0 && r.infection.censored = 0)
        "tables: %s: %d cover, %d infection trials censored" gi.family r.cover.censored
        r.infection.censored;
      let c = r.cover.summary.mean in
      let lower = Bounds.lower_bound ~n ~diameter:(Props.eccentricity gi.g gi.start) in
      let upper = Bounds.this_paper_general ~n ~m ~dmax:(Graph.max_degree gi.g) in
      check (c >= lower && c <= upper) "tables: %s: mean cover %.2f outside [%.2f, %.2f]"
        gi.family c lower upper;
      check
        (c >= fst gi.band && c <= snd gi.band)
        "tables: %s: mean cover %.2f outside the reference band [%.0f, %.0f]" gi.family c
        (fst gi.band) (snd gi.band);
      (match (lazy_lambda_closed_form gi.family gi.g, r.lazy_lambda) with
      | Some expected, Some got ->
          check
            (Float.abs (r.lambda -. 1.0) < 1e-6)
            "tables: %s: bipartite lambda %.9f, expected 1" gi.family r.lambda;
          check
            (Float.abs (got -. expected) < 1e-6)
            "tables: %s: lazy lambda %.9f, closed form %.9f" gi.family got expected
      | _ -> check (r.lambda < 1.0) "tables: %s: lambda %.9f is not below 1" gi.family r.lambda))
    inputs rows

let check_hitting g h =
  let n = Graph.n g in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let k = abs (u - v) in
      let k = min k (n - k) in
      let expected = float_of_int (k * (n - k)) in
      check
        (Float.abs (h.(u).(v) -. expected) <= 1e-6 *. Float.max 1.0 expected)
        "tables: hitting time %d -> %d is %.6f, closed form %.0f" u v h.(u).(v) expected
    done
  done

let run ~seed ~seconds ~trace ~dir:_ =
  Spans.enabled := trace;
  (* Set-up: generate the sweep's graphs, several times, before the pool
     exists: generation runs on one domain, and idle pool domains would
     make every minor collection wait for them. *)
  let graphs, setup_times = repeat_setup setup_reps (fun _ -> generate ~seed) in
  let pool = Spans.record "parallel.pool_create" (fun () -> Pool.create ~num_domains:(nproc - 1) ()) in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let inputs =
    List.mapi
      (fun j (family, g, band) ->
        { family; g; start = Estimate.start_heuristic g; master_seed = (seed * 7_919) + j; band })
      graphs
  in
  Spans.enabled := false;
  (* The first estimate in a process can cost several times the same call
     repeated; pay it before timing and record both. *)
  let warm = (List.find (fun gi -> gi.family = "hypercube") inputs).g in
  let first_call () = Estimate.cover_time ~pool ~master_seed:1 ~trials:8 warm in
  let _, first_s = time first_call in
  let _, second_s = time first_call in
  (* Measured phase: whole sweeps on the same inputs; a traced run
     alternates untraced and traced sweeps.  Each sweep starts from a
     collected heap, so that memory does not depend on when the GC last
     ran; its hitting times are checked and dropped, not kept. *)
  let hitting_graph = (List.find (fun gi -> gi.family = hitting_family) inputs).g in
  let one_sweep () =
    Gc.full_major ();
    let (rows, hitting, steps), s = time (fun () -> sweep pool inputs) in
    check_hitting hitting_graph hitting;
    (rows, steps, s)
  in
  let untraced = ref [] and traced = ref [] in
  for _ = 1 to max 1 (int_of_float (Float.round (float_of_int seconds /. sweep_nominal_s))) do
    untraced := one_sweep () :: !untraced;
    if trace then begin
      Spans.enabled := true;
      traced := one_sweep () :: !traced;
      Spans.enabled := false
    end
  done;
  let rss = peak_rss_mb () in
  let sweeps = Array.of_list (List.rev !untraced) in
  let rows, _, _ = sweeps.(0) in
  Array.iter
    (fun (r, _, _) -> check (compare r rows = 0) "tables: a repeated sweep gave different results")
    sweeps;
  let censored = List.fold_left (fun acc r -> acc + r.cover.censored + r.infection.censored) 0 rows in
  check_rows inputs rows;
  let sweep_s = Array.map (fun (_, _, s) -> s) sweeps in
  (* The median sweep, composed step by step: each step's median over the
     sweeps, summed, so that a burst of host noise in one sweep's step
     does not move it. *)
  let _, first_steps, _ = sweeps.(0) in
  let step_medians =
    Array.mapi
      (fun j (name, _) -> (name, median (Array.map (fun (_, steps, _) -> snd steps.(j)) sweeps)))
      first_steps
  in
  let median_sweep_s = sum (Array.map snd step_medians) in
  (* Estimator throughput: the trials over the composed time of the cover
     and infection estimates alone, without the spectral and hitting-time
     solves. *)
  let estimate_steps_s =
    sum
      (Array.map
         (fun (name, s) -> if name = "core.cover_time" || name = "core.infection_time" then s else 0.0)
         step_medians)
  in
  let trials_per_sweep = 2 * trials * List.length inputs in
  let e2e =
    [
      ("setup_s", median setup_times, "s");
      ("throughput_per_s", float_of_int trials_per_sweep /. estimate_steps_s, "1/s");
      ("p50_ms", median_sweep_s *. 1e3, "ms");
    ]
  in
  let storage = List.fold_left (fun acc gi -> acc + Graph.storage_bytes gi.g) 0 inputs in
  let entries = List.fold_left (fun acc gi -> acc + (2 * Graph.m gi.g)) 0 inputs in
  let layers =
    if not trace then []
    else begin
      let traced_s = sum (Array.of_list (List.map (fun (_, _, s) -> s) !traced)) in
      let untraced_s = sum (Array.sub sweep_s 0 (List.length !traced)) in
      let estimate_s name = sum (Spans.durations_s name) /. float_of_int (List.length !traced) in
      (* Totals over one sweep's cover trials: exact counts. *)
      let cover_total f =
        Float.round (List.fold_left (fun acc r -> acc +. (f r *. float_of_int trials)) 0.0 rows)
      in
      Spans.enabled := true;
      let replay =
        seq_probe_metrics
          (List.map (fun gi -> seq_cover_probe gi.g (Rng.create (seed + 17)) ~start:gi.start) inputs)
      in
      Spans.enabled := false;
      [
        ("graph.gen_s", median setup_times, "s");
        ("graph.bytes_per_entry", float_of_int storage /. float_of_int entries, "B");
        ("core.estimate_cover_s", estimate_s "core.cover_time", "s");
        ("core.estimate_infection_s", estimate_s "core.infection_time", "s");
        ("core.cover_rounds", cover_total (fun r -> r.cover.summary.mean), "count");
        ("core.transmissions", cover_total (fun r -> r.cover.mean_transmissions), "count");
        ( "parallel.trials_per_s",
          float_of_int trials_per_sweep
          /. (estimate_s "core.cover_time" +. estimate_s "core.infection_time"),
          "1/s" );
        ( "spectral.lambda_s",
          estimate_s "spectral.second_eigenvalue" +. estimate_s "spectral.lazy_second_eigenvalue",
          "s" );
        ("core.hitting_s", estimate_s "core.all_hitting_times", "s");
        ("trace.overhead_share", (traced_s /. untraced_s) -. 1.0, "share");
      ]
      @ replay
    end
  in
  let row_figures =
    List.concat
      (List.map2
         (fun gi r ->
           [
             (gi.family ^ ".n", float_of_int (Graph.n gi.g));
             (gi.family ^ ".lambda", r.lambda);
             (gi.family ^ ".cover_mean", r.cover.summary.mean);
             (gi.family ^ ".infection_mean", r.infection.summary.mean);
           ])
         inputs rows)
  in
  {
    attempted = trials_per_sweep * Array.length sweeps;
    peak_rss_mb = rss;
    failures = [ ("censored", censored * Array.length sweeps) ];
    e2e;
    layers;
    report =
      [
        ( "context",
          context ~workload:"tables" ~seed ~seconds ~pool_width:(Pool.size pool)
            ~working_set_bytes:storage );
        ( "figures",
          figures
            ([
               ("sweep_s", median_sweep_s);
               ("slowest_sweep_s", Array.fold_left Float.max 0.0 sweep_s);
               ("sweeps", float_of_int (Array.length sweeps));
               ("first_estimate_s", first_s);
               ("repeat_estimate_s", second_s);
             ]
            @ row_figures) );
      ];
  }
