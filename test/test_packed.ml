(* Tests for the int32 CSR storage behind Graph.t and the .cgr binary
   format.

   The storage is checked against a tiny oracle: a test-local
   [int array array] adjacency built straight from an edge list (merge
   both orientations, sort, deduplicate).  Every accessor must agree
   with it — the random-neighbour draws draw for draw against
   [adj.(u).(int_below d)] — on the generator zoo and on each graph
   rebuilt through every construction path: [of_edge_array] and
   [Builder] from a shuffled, duplicated edge list, and the eager and
   mmap [.cgr] loaders.  The kernels (cobra/bips, sequential and keyed)
   and the CG hitting-time solver must be bit-identical across those
   paths, and a .cgr write -> eager load -> mmap load round trip must
   reject torn and corrupt files. *)

module Graph = Cobra_graph.Graph
module Builder = Cobra_graph.Builder
module Gen = Cobra_graph.Gen
module Cgr = Cobra_graph.Cgr
module Graph_io = Cobra_graph.Graph_io
module Process = Cobra_core.Process
module Walk_theory = Cobra_core.Walk_theory
module Props = Cobra_graph.Props
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Keyed = Cobra_prng.Keyed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The zoo: every family string here is deterministic under the fixed
   seed; the list spans the classic families (built by of_edge_array)
   and the Builder-based power-law ones. *)
let zoo =
  [
    ("hypercube", 64);
    ("torus2d", 64);
    ("complete", 24);
    ("cycle", 63);
    ("lollipop", 40);
    ("regular-8", 96);
    ("gnp", 80);
    ("binary-tree", 31);
    ("petersen", 10);
    ("ba:4", 200);
    ("chunglu:2.5", 200);
    ("config:2.5", 200);
  ]

let zoo_graphs () =
  List.map (fun (fam, n) -> (fam, Gen.by_name fam ~n (Rng.create 2017))) zoo

(* --- The oracle --- *)

let oracle ~n edges =
  let lists = Array.make n [] in
  Array.iter
    (fun (u, v) ->
      lists.(u) <- v :: lists.(u);
      lists.(v) <- u :: lists.(v))
    edges;
  Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) lists

let check_csr_equal msg a b =
  check_int (msg ^ ": n") (Graph.n a) (Graph.n b);
  check_int (msg ^ ": m") (Graph.m a) (Graph.m b);
  let ca = Graph.csr a and cb = Graph.csr b in
  check_bool (msg ^ ": offsets") true (ca.Graph.offsets = cb.Graph.offsets);
  check_bool (msg ^ ": adjacency") true (ca.Graph.adj = cb.Graph.adj)

(* The raw CSR arrays, the size accounting, and the degree summaries. *)
let check_csr_oracle msg g adj =
  let n = Array.length adj in
  let entries = Array.fold_left (fun acc a -> acc + Array.length a) 0 adj in
  check_int (msg ^ ": n") n (Graph.n g);
  check_int (msg ^ ": m") (entries / 2) (Graph.m g);
  check_bool (msg ^ ": is_packed") true (Graph.is_packed g);
  check_int (msg ^ ": storage bytes") (4 * (n + 1 + entries)) (Graph.storage_bytes g);
  let { Graph.offsets; adj = flat } = Graph.csr g in
  let pos = ref 0 in
  Array.iteri
    (fun u a ->
      check_int (Printf.sprintf "%s: offsets.{%d}" msg u) !pos (Int32.to_int offsets.{u});
      Array.iter
        (fun v ->
          if Int32.to_int flat.{!pos} <> v then
            Alcotest.failf "%s: adj.{%d} = %ld, oracle %d" msg !pos flat.{!pos} v;
          incr pos)
        a)
    adj;
  check_int (msg ^ ": offsets.{n}") entries (Int32.to_int offsets.{n});
  check_int (msg ^ ": adj length") entries (Bigarray.Array1.dim flat);
  let degs = Array.map Array.length adj in
  let dmax = Array.fold_left max 0 degs in
  let dmin = if n = 0 then 0 else Array.fold_left min max_int degs in
  check_int (msg ^ ": max_degree") dmax (Graph.max_degree g);
  check_int (msg ^ ": min_degree") dmin (Graph.min_degree g);
  check_bool (msg ^ ": is_regular") (n <= 1 || dmax = dmin) (Graph.is_regular g);
  check_int (msg ^ ": total_degree") entries (Graph.total_degree g)

(* Every per-vertex accessor, including both random-neighbour draws,
   draw for draw against the oracle. *)
let check_accessors_oracle msg g adj =
  let n = Array.length adj in
  let edges = ref [] in
  Array.iteri
    (fun u a ->
      let d = Array.length a in
      Array.iter (fun v -> if u < v then edges := (u, v) :: !edges) a;
      check_int (Printf.sprintf "%s: degree %d" msg u) d (Graph.degree g u);
      check_int (Printf.sprintf "%s: unsafe_degree %d" msg u) d (Graph.unsafe_degree g u);
      Alcotest.(check (array int)) (Printf.sprintf "%s: neighbors %d" msg u) a (Graph.neighbors g u);
      Array.iteri
        (fun i v ->
          if Graph.neighbor g u i <> v || Graph.unsafe_neighbor g u i <> v then
            Alcotest.failf "%s: neighbor %d %d" msg u i)
        a;
      let seen = ref [] in
      Graph.iter_neighbors g u (fun v -> seen := v :: !seen);
      Alcotest.(check (list int))
        (Printf.sprintf "%s: iter_neighbors %d" msg u)
        (Array.to_list a) (List.rev !seen);
      check_int
        (Printf.sprintf "%s: fold_neighbors %d" msg u)
        (Array.fold_left ( + ) 0 a)
        (Graph.fold_neighbors g u ( + ) 0);
      for v = 0 to n - 1 do
        if Graph.mem_edge g u v <> Array.mem v a then
          Alcotest.failf "%s: mem_edge %d %d" msg u v
      done;
      if d > 0 then begin
        let r1 = Rng.create (u + 1) and r2 = Rng.create (u + 1) and r3 = Rng.create (u + 1) in
        let k1 = Keyed.create ~master:(u + 7) and k2 = Keyed.create ~master:(u + 7) in
        Keyed.position k1 ~round:3 ~vertex:u;
        Keyed.position k2 ~round:3 ~vertex:u;
        for _ = 1 to 8 do
          let expect = a.(Rng.int_below r1 d) in
          if Graph.random_neighbor g r2 u <> expect then
            Alcotest.failf "%s: random_neighbor diverges at %d" msg u;
          if Graph.unsafe_random_neighbor g r3 u <> expect then
            Alcotest.failf "%s: unsafe_random_neighbor diverges at %d" msg u;
          if Graph.unsafe_keyed_neighbor g k2 u <> a.(Keyed.int_below k1 d) then
            Alcotest.failf "%s: unsafe_keyed_neighbor diverges at %d" msg u
        done
      end)
    adj;
  let edges = List.sort compare !edges in
  Alcotest.(check (list (pair int int))) (msg ^ ": edges") edges (Graph.edges g);
  let iterated = ref [] in
  Graph.iter_edges g (fun u v -> iterated := (u, v) :: !iterated);
  Alcotest.(check (list (pair int int))) (msg ^ ": iter_edges") edges (List.rev !iterated);
  let evens = Bitset.of_list n (List.filter (fun u -> u mod 2 = 0) (List.init n Fun.id)) in
  check_int (msg ^ ": degree_of_set")
    (Array.fold_left ( + ) 0 (Array.mapi (fun u a -> if u mod 2 = 0 then Array.length a else 0) adj))
    (Graph.degree_of_set g evens)

let with_tmp f =
  let path = Filename.temp_file "cobra_test" ".cgr" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* [g] rebuilt through every construction path, from its edge list
   shuffled with every edge repeated in the other orientation (the
   constructors must merge the duplicates), plus its .cgr reloads. *)
let with_variants fam g f =
  let n = Graph.n g in
  let edges = Array.of_list (Graph.edges g) in
  let input = Array.append edges (Array.map (fun (u, v) -> (v, u)) edges) in
  Rng.shuffle_in_place (Rng.create (Array.length input)) input;
  with_tmp (fun path ->
      Cgr.write path g;
      f (oracle ~n edges)
        [
          (fam ^ " generated", g);
          (fam ^ " of_edge_array", Graph.of_edge_array ~n input);
          (fam ^ " builder", Builder.of_edge_seq ~n (Array.to_seq input));
          (fam ^ " cgr eager", Cgr.read_eager path);
          (fam ^ " cgr mmap", Cgr.read_mmap path);
        ])

let test_csr_oracle () =
  List.iter
    (fun (fam, g) ->
      with_variants fam g (fun adj variants ->
          List.iter (fun (label, h) -> check_csr_oracle label h adj) variants))
    (zoo_graphs ())

let test_accessors_oracle () =
  List.iter
    (fun (fam, g) ->
      with_variants fam g (fun adj variants ->
          List.iter (fun (label, h) -> check_accessors_oracle label h adj) variants))
    (zoo_graphs ())

(* A graph too large for int32 storage is refused before anything is
   allocated, with the error naming n and 2m. *)
let test_int32_limit () =
  let n = Int32.to_int Int32.max_int + 1 in
  let expected =
    Printf.sprintf "Graph: graph too large for int32 CSR storage (n=%d, 2m=0, limit %d)" n
      (n - 1)
  in
  let expect_too_large what f =
    match f () with
    | (_ : Graph.t) -> Alcotest.failf "%s: oversized graph accepted" what
    | exception Invalid_argument msg -> Alcotest.(check string) what expected msg
  in
  expect_too_large "of_edges" (fun () -> Graph.of_edges ~n []);
  expect_too_large "builder" (fun () -> Builder.finish (Builder.create ~n ()))

(* --- Kernel equivalence: same seed, same rounds, same sets --- *)

let run_cobra g ~seed ~rounds =
  let n = Graph.n g in
  let rng = Rng.create seed in
  let current = Bitset.create n and next = Bitset.create n in
  Bitset.add current 0;
  let tx = ref 0 in
  let trace = Buffer.create 256 in
  for _ = 1 to rounds do
    tx :=
      !tx
      + Process.cobra_step g rng ~branching:(Process.Fixed 2) ~lazy_:false ~current ~next;
    Bitset.blit ~src:next ~dst:current;
    Buffer.add_string trace (Printf.sprintf "%d;" (Bitset.cardinal current))
  done;
  (!tx, Buffer.contents trace, Bitset.to_list current)

let run_cobra_keyed g ~master ~rounds =
  let n = Graph.n g in
  let ctx = Process.make_keyed_ctx g ~master in
  let current = Bitset.create n and next = Bitset.create n in
  Bitset.add current 0;
  let tx = ref 0 in
  for round = 1 to rounds do
    tx :=
      !tx
      + Process.cobra_step_keyed g ctx ~round ~branching:(Process.Fixed 2) ~lazy_:false
          ~current ~next;
    Bitset.blit ~src:next ~dst:current
  done;
  (!tx, Bitset.to_list current)

let run_bips g ~seed ~rounds =
  let n = Graph.n g in
  let rng = Rng.create seed in
  let current = Bitset.create n and next = Bitset.create n in
  Bitset.add current 0;
  for _ = 1 to rounds do
    Process.bips_step g rng ~branching:(Process.Bernoulli 0.5) ~lazy_:false ~source:0
      ~current ~next;
    Bitset.blit ~src:next ~dst:current
  done;
  Bitset.to_list current

let test_kernels_bit_identical () =
  List.iter
    (fun (fam, g) ->
      let cobra = run_cobra g ~seed:7 ~rounds:12
      and keyed = run_cobra_keyed g ~master:2017 ~rounds:12
      and bips = run_bips g ~seed:11 ~rounds:12 in
      with_variants fam g (fun _ variants ->
          List.iter
            (fun (label, h) ->
              let tx, trace, set = run_cobra h ~seed:7 ~rounds:12 in
              let tx0, trace0, set0 = cobra in
              check_int (label ^ ": cobra transmissions") tx0 tx;
              Alcotest.(check string) (label ^ ": cobra cardinal trace") trace0 trace;
              Alcotest.(check (list int)) (label ^ ": cobra final set") set0 set;
              let ktx, kset = run_cobra_keyed h ~master:2017 ~rounds:12 in
              check_int (label ^ ": keyed cobra transmissions") (fst keyed) ktx;
              Alcotest.(check (list int)) (label ^ ": keyed cobra final set") (snd keyed) kset;
              Alcotest.(check (list int))
                (label ^ ": bips final set") bips
                (run_bips h ~seed:11 ~rounds:12))
            variants))
    (zoo_graphs ())

(* --- Solver equivalence: CG over the grounded Laplacian --- *)

let test_solver_bit_identical () =
  List.iter
    (fun (fam, g) ->
      if Props.is_connected g then begin
        let expect = Walk_theory.hitting_times g ~target:0 in
        with_variants fam g (fun _ variants ->
            List.iter
              (fun (label, h) ->
                let got = Walk_theory.hitting_times h ~target:0 in
                (* Bit-identical, not approximately equal: the gather
                   accumulates in neighbour order whatever built the
                   graph or backs its storage. *)
                Array.iteri
                  (fun u x ->
                    if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float got.(u)))
                    then
                      Alcotest.failf "%s: hitting time differs at %d: %.17g vs %.17g" label u x
                        got.(u))
                  expect)
              variants)
      end)
    (zoo_graphs ())

(* --- .cgr round trip --- *)

let test_cgr_roundtrip () =
  List.iter
    (fun (fam, g) ->
      with_tmp (fun path ->
          Cgr.write path g;
          let expected_bytes = 32 + (4 * (Graph.n g + 1 + (2 * Graph.m g))) in
          check_int (fam ^ ": file size") expected_bytes (Unix.stat path).Unix.st_size;
          let eager = Cgr.read_eager path in
          let mapped = Cgr.read_mmap path in
          check_csr_equal (fam ^ ": eager round trip") g eager;
          check_csr_equal (fam ^ ": mmap round trip") g mapped;
          (* Dispatch through the generic loader must land here too. *)
          check_bool (fam ^ ": sniff") true (Cgr.is_cgr_file path);
          check_csr_equal (fam ^ ": read_file dispatch") g (Graph_io.read_file path)))
    (zoo_graphs ())

(* A simulation driven off the mmap-backed graph is bit-identical to
   one on the original: storage is invisible to the draw sequence. *)
let test_cgr_simulation_identical () =
  let g = Gen.by_name "ba:4" ~n:300 (Rng.create 5) in
  with_tmp (fun path ->
      Cgr.write path g;
      let mapped = Cgr.read_mmap path in
      let tx_a, trace_a, set_a = run_cobra g ~seed:13 ~rounds:10 in
      let tx_b, trace_b, set_b = run_cobra mapped ~seed:13 ~rounds:10 in
      check_int "transmissions" tx_a tx_b;
      Alcotest.(check string) "trace" trace_a trace_b;
      Alcotest.(check (list int)) "final set" set_a set_b)

(* --- Malformed files are rejected, never misread --- *)

let expect_bad name f =
  match f () with
  | (_ : Graph.t) -> Alcotest.failf "%s: malformed file was accepted" name
  | exception Cgr.Bad_file _ -> ()

let expect_error name path = function
  | Ok (_ : Graph.t) -> Alcotest.failf "%s: malformed input was accepted" name
  | Error msg ->
      check_bool (name ^ ": one line naming the path") true
        (String.starts_with ~prefix:(path ^ ": ") msg && not (String.contains msg '\n'))

let patch_byte path ~pos ~byte =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd pos Unix.SEEK_SET : int);
      ignore (Unix.write fd (Bytes.make 1 (Char.chr byte)) 0 1 : int))

let truncate_to path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)

let test_cgr_rejects_malformed () =
  let g = Gen.by_name "hypercube" ~n:64 (Rng.create 1) in
  let size = 32 + (4 * (Graph.n g + 1 + (2 * Graph.m g))) in
  let fresh f =
    with_tmp (fun path ->
        Cgr.write path g;
        f path)
  in
  (* Truncation at several depths: inside the header, inside the
     offsets, one byte short of complete. *)
  List.iter
    (fun len ->
      fresh (fun path ->
          truncate_to path len;
          expect_bad (Printf.sprintf "truncated to %d (eager)" len) (fun () ->
              Cgr.read_eager path);
          expect_bad (Printf.sprintf "truncated to %d (mmap)" len) (fun () ->
              Cgr.read_mmap path)))
    [ 0; 16; 40; size - 1 ];
  (* A trailing extra byte is as torn as a missing one. *)
  fresh (fun path ->
      let oc = open_out_gen [ Open_append; Open_binary ] 0 path in
      output_char oc '\x00';
      close_out oc;
      expect_bad "oversize (eager)" (fun () -> Cgr.read_eager path);
      expect_bad "oversize (mmap)" (fun () -> Cgr.read_mmap path));
  (* Wrong version and nonzero reserved flags. *)
  fresh (fun path ->
      patch_byte path ~pos:8 ~byte:9;
      expect_bad "bad version" (fun () -> Cgr.read_eager path));
  fresh (fun path ->
      patch_byte path ~pos:12 ~byte:1;
      expect_bad "nonzero flags" (fun () -> Cgr.read_mmap path));
  (* A corrupted magic is simply not a .cgr file: the sniff says no and
     the generic loader falls back to the text parser (which then fails
     on binary junk with its own error, not a misparse). *)
  fresh (fun path ->
      patch_byte path ~pos:0 ~byte:Char.(code 'X');
      check_bool "sniff rejects" false (Cgr.is_cgr_file path);
      match Graph_io.read_file path with
      | (_ : Graph.t) -> Alcotest.fail "binary junk parsed as text"
      | exception Failure _ -> ());
  (* The eager loader's structural walk catches payload corruption the
     size checks cannot: an adjacency entry pointing past n. *)
  fresh (fun path ->
      patch_byte path ~pos:(size - 1) ~byte:0x7f;
      expect_bad "out-of-range adjacency (eager)" (fun () -> Cgr.read_eager path);
      expect_error "out-of-range adjacency (read_file_result)" path
        (Graph_io.read_file_result ~mmap:false path));
  (* The front-end loader turns every typed error into one
     "<path>: <reason>" line: a torn .cgr, bad text, a missing file. *)
  fresh (fun path ->
      truncate_to path (size - 1);
      expect_error "torn (read_file_result)" path (Graph_io.read_file_result path));
  with_tmp (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "cobra-graph 3\n0 x\n");
      expect_error "bad text (read_file_result)" path (Graph_io.read_file_result path));
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "cobra_test_missing.cgr" in
  expect_error "missing file (read_file_result)" missing (Graph_io.read_file_result missing)

(* --- QCheck: random multigraph edge lists against the oracle --- *)

let random_graph_oracle =
  QCheck.Test.make ~name:"random graphs: CSR matches the oracle" ~count:60
    QCheck.(pair (int_range 2 50) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let m = Rng.int_below rng (4 * n) in
      (* A ring base keeps every vertex non-isolated (the kernels
         require it); the random extras add skew and duplicates. *)
      let edges =
        Array.init (n + m) (fun i ->
            if i < n then (i, (i + 1) mod n)
            else begin
              let u = Rng.int_below rng n in
              let v = (u + 1 + Rng.int_below rng (n - 1)) mod n in
              (u, v)
            end)
      in
      let adj = oracle ~n edges in
      let g = Graph.of_edge_array ~n edges in
      let b = Builder.of_edge_seq ~n (Array.to_seq edges) in
      check_csr_oracle "of_edge_array" g adj;
      check_accessors_oracle "of_edge_array" g adj;
      check_csr_equal "builder" g b;
      run_cobra g ~seed:(seed + 1) ~rounds:6 = run_cobra b ~seed:(seed + 1) ~rounds:6)

let () =
  Alcotest.run "packed"
    [
      ( "storage",
        [
          Alcotest.test_case "csr matches oracle" `Quick test_csr_oracle;
          Alcotest.test_case "accessors agree" `Quick test_accessors_oracle;
          Alcotest.test_case "kernels bit-identical" `Quick test_kernels_bit_identical;
          Alcotest.test_case "CG solver bit-identical" `Quick test_solver_bit_identical;
          Alcotest.test_case "int32 limit" `Quick test_int32_limit;
        ] );
      ( "cgr",
        [
          Alcotest.test_case "write/eager/mmap round trip" `Quick test_cgr_roundtrip;
          Alcotest.test_case "simulation on mmap graph" `Quick test_cgr_simulation_identical;
          Alcotest.test_case "malformed files rejected" `Quick test_cgr_rejects_malformed;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest random_graph_oracle ]);
    ]
