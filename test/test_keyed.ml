(* Keyed (counter-based) randomness: unit tests for the Keyed stream
   itself, and the tentpole property of the domain-sharded kernels —
   bit-identical results for every pool size.

   Pool widths tested are 1, 2 and 4 total workers (num_domains 0/1/3),
   plus an optional extra width from the COBRA_TEST_DOMAINS environment
   variable so CI can probe an arbitrary configuration.  The small
   graphs here force the sharded path with ~dense_threshold:1; results
   must equal the no-pool serial keyed run exactly. *)

module Bitset = Cobra_bitset.Bitset
module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Keyed = Cobra_prng.Keyed
module Rng = Cobra_prng.Rng
module Pool = Cobra_parallel.Pool
module Process = Cobra_core.Process
module Cobra = Cobra_core.Cobra
module Bips = Cobra_core.Bips
module Sis = Cobra_core.Sis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Total worker counts exercised by every invariance test. *)
let pool_widths =
  let base = [ 1; 2; 4 ] in
  match Sys.getenv_opt "COBRA_TEST_DOMAINS" with
  | Some s ->
      (match int_of_string_opt s with
      | Some k when k >= 1 && not (List.mem k base) -> base @ [ k ]
      | _ -> base)
  | None -> base

let with_width width f = Pool.with_pool ~num_domains:(width - 1) f

(* --- Keyed stream units --- *)

let draws k n = List.init n (fun _ -> Keyed.next64 k)

let test_replay () =
  let a = Keyed.create ~master:42 in
  let b = Keyed.create ~master:42 in
  Keyed.position a ~round:3 ~vertex:17;
  Keyed.position b ~round:3 ~vertex:17;
  Alcotest.(check (list int64)) "same position, same stream" (draws a 8) (draws b 8);
  (* Repositioning replays from the start of the (round, vertex) stream
     regardless of how far the previous position was consumed. *)
  Keyed.position a ~round:3 ~vertex:17;
  Keyed.position b ~round:3 ~vertex:17;
  ignore (Keyed.next64 b);
  Keyed.position b ~round:3 ~vertex:17;
  Alcotest.(check (list int64)) "reposition replays" (draws a 4) (draws b 4)

let test_distinct_positions () =
  let k = Keyed.create ~master:42 in
  let first ~stream ~round ~vertex =
    Keyed.position ~stream k ~round ~vertex;
    Keyed.next64 k
  in
  let base = first ~stream:0 ~round:1 ~vertex:1 in
  check_bool "round separates" true (base <> first ~stream:0 ~round:2 ~vertex:1);
  check_bool "vertex separates" true (base <> first ~stream:0 ~round:1 ~vertex:2);
  check_bool "stream separates" true (base <> first ~stream:1 ~round:1 ~vertex:1);
  let other = Keyed.create ~master:43 in
  Keyed.position other ~round:1 ~vertex:1;
  check_bool "master separates" true (base <> Keyed.next64 other)

let test_copy_independent () =
  let a = Keyed.create ~master:7 in
  Keyed.position a ~round:5 ~vertex:9;
  let b = Keyed.copy a in
  let da = draws a 6 in
  let db = draws b 6 in
  Alcotest.(check (list int64)) "copy continues identically" da db

let test_int_below_range () =
  let k = Keyed.create ~master:1 in
  List.iter
    (fun bound ->
      Keyed.position k ~round:1 ~vertex:bound;
      for _ = 1 to 200 do
        let v = Keyed.int_below k bound in
        if v < 0 || v >= bound then Alcotest.failf "int_below %d returned %d" bound v
      done)
    [ 1; 2; 3; 7; 63; 64; 1000 ]

let test_int_below_uniform_ish () =
  (* Coarse uniformity: 6 buckets, 6000 draws, each bucket within 30%
     of its expectation.  Deterministic given the fixed key. *)
  let k = Keyed.create ~master:2 in
  Keyed.position k ~round:1 ~vertex:0;
  let counts = Array.make 6 0 in
  for _ = 1 to 6000 do
    let v = Keyed.int_below k 6 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 700 || c > 1300 then Alcotest.failf "bucket %d count %d far from 1000" i c)
    counts

let test_bernoulli_degenerate () =
  (* p <= 0 and p >= 1 must consume no randomness, matching the
     sequential Rng contract that keeps Fixed/Bernoulli streams
     aligned. *)
  let a = Keyed.create ~master:3 in
  Keyed.position a ~round:2 ~vertex:4;
  let b = Keyed.copy a in
  check_bool "p=1 true" true (Keyed.bernoulli a 1.0);
  check_bool "p=0 false" false (Keyed.bernoulli a 0.0);
  check_bool "p=1.5 true" true (Keyed.bernoulli a 1.5);
  Alcotest.(check int64) "no draws consumed" (Keyed.next64 b) (Keyed.next64 a);
  (* Non-degenerate p consumes exactly one draw. *)
  ignore (Keyed.bernoulli a 0.5);
  ignore (Keyed.next64 b);
  Alcotest.(check int64) "one draw consumed" (Keyed.next64 b) (Keyed.next64 a)

let test_float01_range () =
  let k = Keyed.create ~master:4 in
  Keyed.position k ~round:1 ~vertex:0;
  for _ = 1 to 1000 do
    let x = Keyed.float01 k in
    if not (x >= 0.0 && x < 1.0) then Alcotest.failf "float01 out of range: %f" x
  done

let test_derive_seed_stable () =
  let s = Keyed.derive_seed ~master:11 ~stream:1 ~round:3 ~vertex:5 in
  Alcotest.(check int64) "derive_seed is a pure function" s
    (Keyed.derive_seed ~master:11 ~stream:1 ~round:3 ~vertex:5);
  check_bool "stream separates seeds" true
    (s <> Keyed.derive_seed ~master:11 ~stream:2 ~round:3 ~vertex:5)

let test_round_base_hoist () =
  (* position_at with a hoisted round_base must land on exactly the
     position that the two-mix position computes. *)
  let a = Keyed.create ~master:17 in
  let b = Keyed.create ~master:17 in
  List.iter
    (fun (round, vertex) ->
      Keyed.position a ~round ~vertex;
      let base = Keyed.round_base b ~round in
      Keyed.position_at b ~base ~vertex;
      Alcotest.(check (list int64))
        (Printf.sprintf "round=%d vertex=%d" round vertex)
        (draws a 4) (draws b 4))
    [ (0, 0); (1, 1); (3, 17); (12, 65535); (100, 1) ];
  (* A non-default stream flows through the base the same way. *)
  Keyed.position ~stream:2 a ~round:5 ~vertex:9;
  let base = Keyed.round_base ~stream:2 b ~round:5 in
  Keyed.position_at b ~base ~vertex:9;
  Alcotest.(check (list int64)) "stream=2 hoist" (draws a 4) (draws b 4)

let test_masked_and_run_draw_compatible () =
  (* mask_below is the int_below rejection mask; masked_below and
     int_below_run must be draw-for-draw interchangeable with repeated
     int_below — same values, same counter consumption (including
     rejections). *)
  List.iter
    (fun n ->
      let mask = Keyed.mask_below n in
      check_bool
        (Printf.sprintf "mask covers n=%d" n)
        true
        (mask >= n - 1 && (mask = 1 || mask / 2 < n - 1) && mask land (mask + 1) = 0);
      let a = Keyed.create ~master:23 in
      let b = Keyed.create ~master:23 in
      let c = Keyed.create ~master:23 in
      Keyed.position a ~round:1 ~vertex:n;
      Keyed.position b ~round:1 ~vertex:n;
      Keyed.position c ~round:1 ~vertex:n;
      let count = 64 in
      let out = Array.make count (-1) in
      Keyed.int_below_run a n ~out ~count;
      for i = 0 to count - 1 do
        check_int (Printf.sprintf "n=%d draw %d (int_below)" n i) out.(i) (Keyed.int_below b n);
        check_int
          (Printf.sprintf "n=%d draw %d (masked_below)" n i)
          out.(i)
          (Keyed.masked_below c ~mask n)
      done;
      (* All three cursors consumed the same number of draws. *)
      let va = Keyed.next64 a and vb = Keyed.next64 b and vc = Keyed.next64 c in
      check_bool (Printf.sprintf "n=%d counters aligned" n) true (va = vb && vb = vc))
    [ 1; 2; 3; 4; 7; 8; 63; 64; 65; 1000; 0x3FFFFFFF; 0x40000000; 0x40000001 ]

(* --- Pool-size invariance of the sharded kernels --- *)

let graphs = [ ("hypercube d=6", Gen.hypercube 6); ("torus 8x8", Gen.torus ~dims:[ 8; 8 ]) ]

(* Fingerprint of a detailed cover run: every field the runner reports. *)
let run_fingerprint (r : Cobra.run option) =
  match r with
  | None -> "censored"
  | Some r ->
      Printf.sprintf "rounds=%d tx=%d visited=%s active=%s" r.rounds r.transmissions
        (String.concat "," (Array.to_list (Array.map string_of_int r.visited_sizes)))
        (String.concat "," (Array.to_list (Array.map string_of_int r.active_sizes)))

let keyed_cover ?pool ~branching ~lazy_ g =
  let rng = Rng.create 0 in
  run_fingerprint
    (Cobra.run_cover_detailed g rng ~branching ~lazy_ ?pool
       ~rng_mode:(Process.Keyed { master = 2017 }) ~dense_threshold:1 ~start:0 ())

let test_cobra_pool_invariance () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (bname, branching, lazy_) ->
          let serial = keyed_cover ~branching ~lazy_ g in
          List.iter
            (fun width ->
              with_width width (fun pool ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s %s keyed, %d worker(s)" name bname width)
                    serial
                    (keyed_cover ~pool ~branching ~lazy_ g)))
            pool_widths)
        [
          ("b=2", Process.Fixed 2, false);
          ("b=3 lazy", Process.Fixed 3, true);
          ("rho=0.4", Process.Bernoulli 0.4, false);
        ])
    graphs

let keyed_infected ?pool g =
  let rng = Rng.create 0 in
  Bips.infected_after g rng ?pool
    ~rng_mode:(Process.Keyed { master = 99 })
    ~dense_threshold:1 ~rounds:12 ~source:1 ()

let test_bips_pool_invariance () =
  List.iter
    (fun (name, g) ->
      let serial = keyed_infected g in
      List.iter
        (fun width ->
          with_width width (fun pool ->
              check_bool
                (Printf.sprintf "%s bips keyed set, %d worker(s)" name width)
                true
                (Bitset.equal serial (keyed_infected ~pool g))))
        pool_widths)
    graphs

let keyed_sis ?pool g =
  let rng = Rng.create 0 in
  let initial = Bitset.of_list (Graph.n g) [ 0; 3; 5 ] in
  let outcome, sizes =
    Sis.run_trajectory g rng ?pool
      ~rng_mode:(Process.Keyed { master = 123 })
      ~dense_threshold:1 ~max_rounds:200 ~initial ()
  in
  let tag =
    match outcome with
    | Sis.Extinct r -> Printf.sprintf "extinct@%d" r
    | Sis.Saturated r -> Printf.sprintf "saturated@%d" r
    | Sis.Censored -> "censored"
  in
  tag ^ ":" ^ String.concat "," (Array.to_list (Array.map string_of_int sizes))

let test_sis_pool_invariance () =
  List.iter
    (fun (name, g) ->
      let serial = keyed_sis g in
      List.iter
        (fun width ->
          with_width width (fun pool ->
              Alcotest.(check string)
                (Printf.sprintf "%s sis keyed, %d worker(s)" name width)
                serial (keyed_sis ~pool g)))
        pool_widths)
    graphs

let test_dense_threshold_irrelevant () =
  (* The threshold decides scheduling, never results: serial sparse
     path vs forced sharded path must agree draw for draw. *)
  let g = Gen.hypercube 6 in
  let forced = keyed_cover ~branching:(Process.Fixed 2) ~lazy_:false g in
  let rng = Rng.create 0 in
  let lazy_default =
    run_fingerprint
      (Cobra.run_cover_detailed g rng ~branching:(Process.Fixed 2) ~lazy_:false
         ~rng_mode:(Process.Keyed { master = 2017 }) ~start:0 ())
  in
  Alcotest.(check string) "threshold does not change results" forced lazy_default

(* A frontier of [card] distinct vertices spread across the universe
   (stride coprime to n), so threshold-boundary tests touch more than
   the first word. *)
let spread_frontier n card =
  Bitset.of_list n (List.init card (fun i -> i * 97 mod n))

let test_dense_threshold_boundary () =
  (* Property at the scheduling crossover: for frontier cardinalities
     threshold-1 (serial path), threshold (serial path) and threshold+1
     (sharded path), a pinned-threshold pooled step must produce the
     same next set, cardinality and transmission count as the poolless
     serial step.  The universe (torus 10x10, n=100) is deliberately
     not a multiple of bits_per_word, so the sharded scan's last
     partial word is exercised too. *)
  let g = Gen.torus ~dims:[ 10; 10 ] in
  let n = Graph.n g in
  check_bool "n exercises a partial last word" true (n mod Bitset.bits_per_word <> 0);
  let threshold = 16 in
  List.iter
    (fun card ->
      let current = spread_frontier n card in
      check_int "frontier built with exact cardinality" card (Bitset.cardinal current);
      let step ?pool ?dense_threshold () =
        let ctx = Process.make_keyed_ctx ?pool ?dense_threshold g ~master:7 in
        let next = Bitset.create n in
        let tx =
          Process.cobra_step_keyed g ctx ~round:2 ~branching:(Process.Fixed 2) ~lazy_:false
            ~current ~next
        in
        (tx, next)
      in
      let tx_serial, next_serial = step () in
      List.iter
        (fun width ->
          with_width width (fun pool ->
              let tx_pool, next_pool = step ~pool ~dense_threshold:threshold () in
              let name what =
                Printf.sprintf "card=%d width=%d: %s" card width what
              in
              check_int (name "transmissions") tx_serial tx_pool;
              check_bool (name "next sets equal") true (Bitset.equal next_serial next_pool);
              check_int (name "cardinal repaired exactly")
                (Bitset.cardinal next_serial) (Bitset.cardinal next_pool)))
        [ 2; 3 ])
    [ threshold - 1; threshold; threshold + 1 ]

let test_raw_writes_recount () =
  (* The serial keyed COBRA round writes raw bits once the frontier has
     at least one member per bitset word, and recounts [next] after the
     round.  On both sides of that switch the result must be the naive
     per-member draw sequence, with its exact cardinality. *)
  let g = Gen.hypercube 10 in
  let n = Graph.n g in
  let nw = Bitset.num_words (Bitset.create n) in
  List.iter
    (fun card ->
      let current = spread_frontier n card in
      let ctx = Process.make_keyed_ctx g ~master:11 in
      let next = Bitset.create n in
      let tx =
        Process.cobra_step_keyed g ctx ~round:3 ~branching:(Process.Fixed 2) ~lazy_:false
          ~current ~next
      in
      let expect = Bitset.create n in
      let k = Keyed.create ~master:11 in
      Bitset.iter
        (fun u ->
          Keyed.position k ~round:3 ~vertex:u;
          for _ = 1 to 2 do
            Bitset.add expect (Graph.neighbor g u (Keyed.int_below k (Graph.degree g u)))
          done)
        current;
      let name what = Printf.sprintf "card=%d (%d words): %s" card nw what in
      check_int (name "transmissions") (2 * card) tx;
      check_int (name "cardinal") (List.length (Bitset.to_list expect)) (Bitset.cardinal next);
      check_bool (name "next set") true (Bitset.equal expect next))
    [ nw - 1; nw; 3 * nw; n ]

let test_scan_last_shard_edge () =
  (* keyed_scan_par (BIPS/SIS) writes [next] in word-aligned chunks;
     with n = 100 the final chunk covers a 37-bit partial word.  The
     sharded scan must agree with the serial loop on the set and on the
     accumulated cardinality for every pool width. *)
  let g = Gen.torus ~dims:[ 10; 10 ] in
  let n = Graph.n g in
  let current = spread_frontier n 40 in
  let bips ?pool ?dense_threshold () =
    let ctx = Process.make_keyed_ctx ?pool ?dense_threshold g ~master:31 in
    let next = Bitset.create n in
    Process.bips_step_keyed g ctx ~round:3 ~branching:(Process.Fixed 2) ~lazy_:false ~source:3
      ~current ~next;
    next
  in
  let sis ?pool ?dense_threshold () =
    let ctx = Process.make_keyed_ctx ?pool ?dense_threshold g ~master:31 in
    let next = Bitset.create n in
    Process.sis_step_keyed g ctx ~round:3 ~branching:(Process.Bernoulli 0.5) ~lazy_:true
      ~current ~next;
    next
  in
  let bips_serial = bips () in
  let sis_serial = sis () in
  List.iter
    (fun width ->
      with_width width (fun pool ->
          let bips_pool = bips ~pool ~dense_threshold:1 () in
          check_bool
            (Printf.sprintf "bips set, %d worker(s)" width)
            true (Bitset.equal bips_serial bips_pool);
          check_int
            (Printf.sprintf "bips cardinal, %d worker(s)" width)
            (Bitset.cardinal bips_serial) (Bitset.cardinal bips_pool);
          let sis_pool = sis ~pool ~dense_threshold:1 () in
          check_bool
            (Printf.sprintf "sis set, %d worker(s)" width)
            true (Bitset.equal sis_serial sis_pool);
          check_int
            (Printf.sprintf "sis cardinal, %d worker(s)" width)
            (Bitset.cardinal sis_serial) (Bitset.cardinal sis_pool)))
    pool_widths

(* --- Frontier-local BIPS/SIS rounds against a naive reference ---

   The keyed BIPS/SIS kernels skip the draws of vertices whose outcome
   is fixed, drawing only near A (sparse rounds) or near V \ A (late
   rounds).  The reference below positions every vertex and draws for
   it, so any vertex the kernels wrongly skip, or wrongly settle
   without a draw, shows up as a difference. *)

let reference_round g ~master ~round ~branching ~lazy_ ~source ~current =
  let n = Graph.n g in
  let next = Bitset.create n in
  let k = Keyed.create ~master in
  for u = 0 to n - 1 do
    Keyed.position k ~round ~vertex:u;
    let fanout =
      match branching with
      | Process.Fixed b -> b
      | Process.Bernoulli rho -> if Keyed.bernoulli k rho then 2 else 1
    in
    let infected = ref false in
    for _ = 1 to fanout do
      let v =
        if lazy_ && Keyed.bool k then u
        else Graph.neighbor g u (Keyed.int_below k (Graph.degree g u))
      in
      if Bitset.mem current v then infected := true
    done;
    if !infected && Some u <> source then Bitset.add next u
  done;
  Option.iter (Bitset.add next) source;
  next

(* The regime a frontier puts a round of [g] in, by the kernels' rule. *)
let regime g current =
  let n = Graph.n g in
  let vol = Graph.degree_of_set g current in
  if vol <= n then `Sparse else if Graph.total_degree g - vol <= n then `Late else `Full

let regime_name = function `Sparse -> "sparse" | `Late -> "late" | `Full -> "full"

(* Frontiers from one vertex to all of them, at fixed random densities. *)
let frontiers n =
  let rng = Rng.create 77 in
  let random_set p =
    Bitset.of_list n (List.filter (fun _ -> Rng.float01 rng < p) (List.init n Fun.id))
  in
  let all_but p =
    let s = random_set p in
    let c = Bitset.create n in
    Bitset.fill c;
    Bitset.diff_into ~into:c s;
    c
  in
  [
    Bitset.of_list n [ 0 ];
    Bitset.of_list n [ 0; 1 ];
    random_set 0.03;
    random_set 0.1;
    random_set 0.5;
    random_set 0.8;
    all_but 0.1;
    all_but 0.02;
    all_but 0.0;
  ]

let branching_name = function
  | Process.Fixed b -> Printf.sprintf "b=%d" b
  | Process.Bernoulli rho -> Printf.sprintf "rho=%g" rho

let test_local_rounds_match_reference () =
  let graphs =
    [
      ("star", Gen.star 48);
      ("ba:4", Gen.by_name "ba:4" ~n:300 (Rng.create 5));
      ("hypercube d=8", Gen.hypercube 8);
    ]
  in
  let variants =
    List.concat_map
      (fun b -> [ (b, false); (b, true) ])
      [ Process.Fixed 1; Process.Fixed 2; Process.Fixed 3; Process.Bernoulli 0.5 ]
  in
  (* One BIPS and one SIS round of every variant from [current]; a pool
     pins the threshold so that full scans shard. *)
  let check_rounds ?pool ~label g current ~master =
    let round = 4 and source = 3 in
    List.iter
      (fun (branching, lazy_) ->
        let ctx =
          Process.make_keyed_ctx ?pool ?dense_threshold:(Option.map (fun _ -> 1) pool) g ~master
        in
        let check what expect next =
          let name s =
            Printf.sprintf "%s, %s%s: %s %s" label (branching_name branching)
              (if lazy_ then " lazy" else "") what s
          in
          check_bool (name "set") true (Bitset.equal expect next);
          check_int (name "cardinal") (Bitset.cardinal expect) (Bitset.cardinal next)
        in
        let next = Bitset.create (Graph.n g) in
        (* A stale [next] must not leak into the round. *)
        Bitset.fill next;
        Process.bips_step_keyed g ctx ~round ~branching ~lazy_ ~source ~current ~next;
        check "bips"
          (reference_round g ~master ~round ~branching ~lazy_ ~source:(Some source) ~current)
          next;
        Process.sis_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next;
        check "sis" (reference_round g ~master ~round ~branching ~lazy_ ~source:None ~current) next)
      variants
  in
  let hit = Hashtbl.create 8 in
  let run ?pool cname =
    List.iter
      (fun (gname, g) ->
        List.iteri
          (fun fi current ->
            let r = regime g current in
            Hashtbl.replace hit (gname, r) ();
            let label =
              Printf.sprintf "%s frontier %d (%s, |A|=%d), %s" gname fi (regime_name r)
                (Bitset.cardinal current) cname
            in
            check_rounds ?pool ~label g current ~master:(1000 + fi))
          (frontiers (Graph.n g)))
      graphs
  in
  run "no pool";
  List.iter
    (fun width -> with_width width (fun pool -> run ~pool (Printf.sprintf "%d worker(s)" width)))
    pool_widths;
  (* The frontiers must reach every regime on the hub-heavy and the
     regular graph (a star has no full rounds: its hub is in A or not). *)
  List.iter
    (fun (gname, regimes) ->
      List.iter
        (fun r ->
          check_bool
            (Printf.sprintf "%s frontiers reach the %s regime" gname (regime_name r))
            true (Hashtbl.mem hit (gname, r)))
        regimes)
    [
      ("star", [ `Sparse; `Late ]);
      ("ba:4", [ `Sparse; `Late; `Full ]);
      ("hypercube d=8", [ `Sparse; `Late; `Full ]);
    ]

let test_isolated_vertex_raises () =
  (* Vertex 4 is isolated: its neighbour draw has no bound.  A graph with
     an isolated vertex always takes the full scan, whose draw for that
     vertex raises, whatever the frontier. *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3) ] in
  List.iter
    (fun members ->
      let current = Bitset.of_list 5 members in
      let next = Bitset.create 5 in
      let ctx = Process.make_keyed_ctx g ~master:3 in
      let raises name f =
        match f () with
        | () ->
            Alcotest.failf "%s on {%s}: no exception" name
              (String.concat "," (List.map string_of_int members))
        | exception Invalid_argument _ -> ()
      in
      raises "bips" (fun () ->
          Process.bips_step_keyed g ctx ~round:1 ~branching:(Process.Fixed 2) ~lazy_:false
            ~source:0 ~current ~next);
      raises "sis" (fun () ->
          Process.sis_step_keyed g ctx ~round:1 ~branching:(Process.Fixed 2) ~lazy_:false ~current
            ~next))
    [ [ 0 ]; [ 0; 1; 2; 3 ] ]

(* --- Sequential mode unaffected --- *)

let test_sequential_ignores_pool () =
  let g = Gen.hypercube 6 in
  let run ?pool () =
    let rng = Rng.create 7 in
    run_fingerprint (Cobra.run_cover_detailed g rng ?pool ~start:0 ())
  in
  let baseline = run () in
  with_width 3 (fun pool ->
      Alcotest.(check string) "pool is ignored under Sequential" baseline (run ~pool ()))

(* --- Keyed engine (message-passing layer) --- *)

let engine_fingerprint ?pool g =
  let module E = Cobra_net.Gossip.Cobra_engine in
  let t = E.create ?pool ~rng_mode:(Process.Keyed { master = 5 }) g ~start:0 in
  let rng = Rng.create 0 in
  (* never read in keyed mode *)
  match E.run_until_covered ~max_rounds:10_000 t rng with
  | None -> "censored"
  | Some rounds -> Printf.sprintf "rounds=%d messages=%d" rounds (E.messages_sent t)

let test_engine_keyed_invariance () =
  let g = Gen.torus ~dims:[ 8; 8 ] in
  let serial = engine_fingerprint g in
  List.iter
    (fun width ->
      with_width width (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "engine keyed, %d worker(s)" width)
            serial (engine_fingerprint ~pool g)))
    pool_widths

(* --- Parallel spectral matvec --- *)

let test_matvec_pool_bit_identical () =
  let g = Gen.random_regular ~n:200 ~r:6 (Rng.create 3) in
  let n = Graph.n g in
  let rng = Rng.create 9 in
  let x = Array.init n (fun _ -> Rng.float01 rng -. 0.5) in
  let y_serial = Array.make n 0.0 and y_pool = Array.make n 0.0 in
  with_width 4 (fun pool ->
      Cobra_spectral.Matvec.apply_normalized g x y_serial;
      Cobra_spectral.Matvec.apply_normalized ~pool g x y_pool;
      for i = 0 to n - 1 do
        if not (Int64.equal (Int64.bits_of_float y_serial.(i)) (Int64.bits_of_float y_pool.(i)))
        then Alcotest.failf "normalized matvec row %d differs" i
      done;
      Cobra_spectral.Matvec.apply_transition g x y_serial;
      Cobra_spectral.Matvec.apply_transition ~pool g x y_pool;
      for i = 0 to n - 1 do
        if not (Int64.equal (Int64.bits_of_float y_serial.(i)) (Int64.bits_of_float y_pool.(i)))
        then Alcotest.failf "transition matvec row %d differs" i
      done;
      let l_serial = Cobra_spectral.Eigen.second_eigenvalue ~tol:1e-9 g in
      let l_pool = Cobra_spectral.Eigen.second_eigenvalue ~tol:1e-9 ~pool g in
      if not (Int64.equal (Int64.bits_of_float l_serial) (Int64.bits_of_float l_pool)) then
        Alcotest.failf "second_eigenvalue differs: %.17g vs %.17g" l_serial l_pool)

(* --- Sequential cobra_step ?scratch fast path --- *)

let test_scratch_equivalence () =
  let g = Gen.torus ~dims:[ 8; 8 ] in
  let n = Graph.n g in
  let rng_a = Rng.create 21 and rng_b = Rng.create 21 in
  let scratch = Array.make Process.sparse_frontier_threshold 0 in
  let cur_a = Bitset.of_list n [ 0; 5; 17 ] and cur_b = Bitset.of_list n [ 0; 5; 17 ] in
  let next_a = Bitset.create n and next_b = Bitset.create n in
  for _ = 1 to 30 do
    let ta =
      Process.cobra_step g rng_a ~branching:(Process.Fixed 2) ~lazy_:false ~current:cur_a
        ~next:next_a
    in
    let tb =
      Process.cobra_step ~scratch g rng_b ~branching:(Process.Fixed 2) ~lazy_:false
        ~current:cur_b ~next:next_b
    in
    check_int "transmissions" ta tb;
    check_bool "next sets equal" true (Bitset.equal next_a next_b);
    Bitset.blit ~src:next_a ~dst:cur_a;
    Bitset.blit ~src:next_b ~dst:cur_b
  done

(* --- Keyed estimators --- *)

let test_estimate_keyed_invariance () =
  let g = Gen.hypercube 6 in
  let est ?pool () =
    let r =
      Cobra_core.Estimate.cover_time_keyed ?pool ~dense_threshold:1 ~master_seed:5 ~trials:4 g
    in
    (r.summary.mean, r.mean_transmissions)
  in
  let serial = est () in
  with_width 2 (fun pool ->
      check_bool "keyed estimate pool-invariant" true (serial = est ~pool ()))

let () =
  Alcotest.run "keyed"
    [
      ( "stream",
        [
          Alcotest.test_case "replay" `Quick test_replay;
          Alcotest.test_case "distinct positions" `Quick test_distinct_positions;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "int_below range" `Quick test_int_below_range;
          Alcotest.test_case "int_below uniformity" `Quick test_int_below_uniform_ish;
          Alcotest.test_case "bernoulli degenerate" `Quick test_bernoulli_degenerate;
          Alcotest.test_case "float01 range" `Quick test_float01_range;
          Alcotest.test_case "derive_seed" `Quick test_derive_seed_stable;
          Alcotest.test_case "round_base hoist" `Quick test_round_base_hoist;
          Alcotest.test_case "batched draws" `Quick test_masked_and_run_draw_compatible;
        ] );
      ( "pool invariance",
        [
          Alcotest.test_case "cobra cover" `Quick test_cobra_pool_invariance;
          Alcotest.test_case "bips infected set" `Quick test_bips_pool_invariance;
          Alcotest.test_case "sis trajectory" `Quick test_sis_pool_invariance;
          Alcotest.test_case "dense threshold" `Quick test_dense_threshold_irrelevant;
          Alcotest.test_case "threshold boundary" `Quick test_dense_threshold_boundary;
          Alcotest.test_case "raw writes recount" `Quick test_raw_writes_recount;
          Alcotest.test_case "scan last-shard edge" `Quick test_scan_last_shard_edge;
          Alcotest.test_case "local rounds vs reference" `Quick test_local_rounds_match_reference;
          Alcotest.test_case "isolated vertex raises" `Quick test_isolated_vertex_raises;
          Alcotest.test_case "sequential ignores pool" `Quick test_sequential_ignores_pool;
          Alcotest.test_case "engine" `Quick test_engine_keyed_invariance;
          Alcotest.test_case "matvec + eigen" `Quick test_matvec_pool_bit_identical;
          Alcotest.test_case "estimate" `Quick test_estimate_keyed_invariance;
        ] );
      ( "sequential paths",
        [ Alcotest.test_case "cobra_step scratch" `Quick test_scratch_equivalence ] );
    ]
