(* Allocation pins for the random-draw primitives and the step kernels.

   The generator states are raw 64-bit words in a [Bytes.t], so a draw
   allocates nothing: the only minor words a draw may cost are those of
   a [float] it returns boxed from a call that was not inlined.  The step
   kernels draw once or twice per vertex, so any per-draw allocation
   would show as minor words proportional to the round's size; the
   kernel pins below require a dense round on 4096 vertices to allocate
   exactly what one on 1024 vertices does (0 words per member) and that
   fixed part to stay within each kernel's measured per-round words.

   Native code only: the bytecode interpreter boxes every [int64]. *)

module Bitset = Cobra_bitset.Bitset
module Gen = Cobra_graph.Gen
module Graph = Cobra_graph.Graph
module Keyed = Cobra_prng.Keyed
module Rng = Cobra_prng.Rng
module Splitmix64 = Cobra_prng.Splitmix64
module Xoshiro = Cobra_prng.Xoshiro
module Process = Cobra_core.Process

let native = Sys.backend_type = Sys.Native

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Minor words of [f] net of the measurement's own cost. *)
let net_words f = minor_words f -. minor_words ignore

let draws = 100_000

let words_per_draw f =
  net_words (fun () ->
      for _ = 1 to draws do
        f ()
      done)
  /. float_of_int draws

let check_words name expected actual = Alcotest.(check (float 0.0)) name expected actual

(* A float returned from a call that is not inlined is boxed by the
   callee: the allowance for [float01] when the call crosses a module
   boundary without inlining (every dev-profile build). *)
let[@inline never] boxed_float x = x +. 0.5

let check_float_draw name f =
  let box = words_per_draw (fun () -> ignore (boxed_float 0.25 : float)) in
  let w = words_per_draw (fun () -> ignore (f () : float)) in
  if w > box then
    Alcotest.failf "%s: %.2f minor words per draw, over the %.2f of its boxed result" name w box

let test_xoshiro_draws () =
  if native then begin
    let t = Xoshiro.create 1L in
    check_words "int_below" 0.0
      (words_per_draw (fun () -> ignore (Xoshiro.int_below t 1000 : int)));
    check_words "int_below wide" 0.0
      (words_per_draw (fun () -> ignore (Xoshiro.int_below t (1 lsl 40) : int)));
    check_words "bool" 0.0 (words_per_draw (fun () -> ignore (Xoshiro.bool t : bool)));
    check_words "bernoulli" 0.0
      (words_per_draw (fun () -> ignore (Xoshiro.bernoulli t 0.3 : bool)));
    check_float_draw "float01" (fun () -> Xoshiro.float01 t)
  end

let test_keyed_draws () =
  if native then begin
    let k = Keyed.create ~master:1 in
    check_words "int_below" 0.0 (words_per_draw (fun () -> ignore (Keyed.int_below k 1000 : int)));
    check_words "bool" 0.0 (words_per_draw (fun () -> ignore (Keyed.bool k : bool)));
    check_words "bernoulli" 0.0 (words_per_draw (fun () -> ignore (Keyed.bernoulli k 0.3 : bool)));
    let base = Keyed.round_base k ~round:3 in
    check_words "position_at" 0.0 (words_per_draw (fun () -> Keyed.position_at k ~base ~vertex:7));
    let mask = Keyed.mask_below 1000 in
    check_words "masked_below" 0.0
      (words_per_draw (fun () -> ignore (Keyed.masked_below k ~mask 1000 : int)));
    check_float_draw "float01" (fun () -> Keyed.float01 k)
  end

(* Frontiers a round is measured from, over n vertices.  From a full
   frontier the keyed BIPS/SIS rounds settle every vertex without a
   draw; [source] makes them sparse, [nearly full] late and [half] a
   full scan. *)
let full n =
  let s = Bitset.create n in
  Bitset.fill s;
  s

let frontiers =
  [
    ("full", full);
    ("source", fun n -> Bitset.of_list n [ 0 ]);
    ( "nearly full",
      fun n ->
        let s = full n in
        for i = 0 to (n / 64) - 1 do
          Bitset.remove s ((64 * i) + 1)
        done;
        s );
    ("half", fun n -> Bitset.of_list n (List.init (n / 2) (fun i -> 2 * i)));
  ]

(* Words one round of [step] allocates on the [dim]-cube, from
   [frontier], with a keyed context that has no pool. *)
let round_words dim frontier step =
  let g = Gen.hypercube dim in
  let n = Graph.n g in
  let current = frontier n and next = Bitset.create n in
  let rng = Rng.create 5 in
  let ctx = Process.make_keyed_ctx g ~master:5 in
  step g rng ctx ~current ~next;
  net_words (fun () -> step g rng ctx ~current ~next)

let fixed = Process.Fixed 2

(* Each kernel with the minor words its round may allocate and the
   frontiers it is measured from.  The sequential BIPS and SIS rounds
   allocate nothing; the others build a few per-round closures (and the
   keyed ones box the round key), sized here to what a dev-profile
   build measures.  Nothing is per member. *)
let kernels =
  let only_full = [ List.hd frontiers ] in
  [
    ( "cobra_step",
      11.0,
      only_full,
      fun g rng _ ~current ~next ->
        ignore (Process.cobra_step g rng ~branching:fixed ~lazy_:false ~current ~next : int) );
    ( "bips_step",
      0.0,
      only_full,
      fun g rng _ ~current ~next ->
        Process.bips_step g rng ~branching:fixed ~lazy_:false ~source:0 ~current ~next );
    ( "sis_step",
      0.0,
      only_full,
      fun g rng _ ~current ~next ->
        Process.sis_step g rng ~branching:fixed ~lazy_:false ~current ~next );
    ( "cobra_step_keyed",
      16.0,
      only_full,
      fun g _ ctx ~current ~next ->
        ignore
          (Process.cobra_step_keyed g ctx ~round:1 ~branching:fixed ~lazy_:false ~current ~next
            : int) );
    ( "bips_step_keyed",
      27.0,
      frontiers,
      fun g _ ctx ~current ~next ->
        Process.bips_step_keyed g ctx ~round:1 ~branching:fixed ~lazy_:false ~source:0 ~current
          ~next );
    ( "sis_step_keyed",
      25.0,
      frontiers,
      fun g _ ctx ~current ~next ->
        Process.sis_step_keyed g ctx ~round:1 ~branching:fixed ~lazy_:false ~current ~next );
  ]

let test_kernel_rounds () =
  if native then
    List.iter
      (fun (kname, allowance, frontiers, step) ->
        List.iter
          (fun (fname, frontier) ->
            let name = Printf.sprintf "%s from %s" kname fname in
            let small = round_words 10 frontier step
            and large = round_words 12 frontier step in
            check_words (name ^ ": 0 words per member") small large;
            if large > allowance then
              Alcotest.failf "%s: %.0f minor words per round, over %.0f" name large allowance)
          frontiers)
      kernels

let next64s next k = List.init k (fun _ -> next ())

let test_xoshiro_copy_independent () =
  let a = Xoshiro.create 5L in
  let b = Xoshiro.copy a in
  let fresh = Xoshiro.create 5L in
  ignore (next64s (fun () -> Xoshiro.next64 a) 4 : int64 list);
  Alcotest.(check (list int64))
    "copy unmoved by its source" (next64s (fun () -> Xoshiro.next64 fresh) 4)
    (next64s (fun () -> Xoshiro.next64 b) 4);
  Xoshiro.jump b;
  Alcotest.(check (list int64))
    "source unmoved by its copy" (next64s (fun () -> Xoshiro.next64 fresh) 4)
    (next64s (fun () -> Xoshiro.next64 a) 4)

let test_keyed_copy_independent () =
  let a = Keyed.create ~master:9 in
  Keyed.position a ~round:2 ~vertex:11;
  let b = Keyed.copy a in
  let fresh = Keyed.create ~master:9 in
  Keyed.position fresh ~round:2 ~vertex:11;
  let expect = next64s (fun () -> Keyed.next64 fresh) 4 in
  Keyed.position a ~round:5 ~vertex:0;
  ignore (Keyed.next64 a : int64);
  Alcotest.(check (list int64)) "copy unmoved by its source" expect
    (next64s (fun () -> Keyed.next64 b) 4);
  Keyed.position a ~round:2 ~vertex:11;
  Keyed.position b ~round:7 ~vertex:3;
  Alcotest.(check (list int64)) "source unmoved by its copy" expect
    (next64s (fun () -> Keyed.next64 a) 4)

(* First outputs pinned from the boxed-field implementation: the change
   of representation must leave every stream bit-identical. *)
let test_pinned_streams () =
  let x = Xoshiro.create 42L in
  Alcotest.(check (list int64))
    "xoshiro after create"
    [ -3425465463722317665L; 5881210131331364753L; -297100157724070516L ]
    (next64s (fun () -> Xoshiro.next64 x) 3);
  let x = Xoshiro.create 42L in
  Xoshiro.jump x;
  Alcotest.(check (list int64))
    "xoshiro after jump"
    [ -4560188475093345563L; 6751983904886340403L; 635420893945114766L ]
    (next64s (fun () -> Xoshiro.next64 x) 3);
  let x = Xoshiro.create 7L in
  let a = Xoshiro.int_below x 1000 in
  let b = Xoshiro.int_below x 3 in
  let c = Xoshiro.int_below x (1 lsl 40) in
  Alcotest.(check (list int)) "xoshiro int_below" [ 640; 0; 938865983567 ] [ a; b; c ];
  Alcotest.(check (float 0.0)) "xoshiro float01" 0x1.ed64c7e5eaf2p-1 (Xoshiro.float01 x);
  let k = Keyed.create ~master:42 in
  Alcotest.(check (list int64))
    "keyed after create"
    [ -4512279254555403373L; 8231125240936771707L; 4491120111480806666L ]
    (next64s (fun () -> Keyed.next64 k) 3);
  Keyed.position k ~round:3 ~vertex:5;
  Alcotest.(check (list int64))
    "keyed at (3, 5)"
    [ -1805568121117540790L; -4028107938244295398L ]
    (next64s (fun () -> Keyed.next64 k) 2);
  let s = Splitmix64.create 42L in
  Alcotest.(check (list int64))
    "splitmix64 after create"
    [ -4767286540954276203L; 2949826092126892291L ]
    (next64s (fun () -> Splitmix64.next s) 2)

(* Keyed draws at a position are the SplitMix64 stream seeded at its key. *)
let test_keyed_is_splitmix () =
  let k = Keyed.create ~master:3 in
  List.iter
    (fun (stream, round, vertex) ->
      Keyed.position ~stream k ~round ~vertex;
      let s = Splitmix64.create (Keyed.derive_seed ~master:3 ~stream ~round ~vertex) in
      Alcotest.(check (list int64))
        (Printf.sprintf "position (%d, %d, %d)" stream round vertex)
        (next64s (fun () -> Splitmix64.next s) 5)
        (next64s (fun () -> Keyed.next64 k) 5))
    [ (0, 0, 0); (0, 1, 7); (2, 40, 1_000_003) ]

let () =
  Alcotest.run "alloc"
    [
      ( "no allocation",
        [
          Alcotest.test_case "xoshiro draws" `Quick test_xoshiro_draws;
          Alcotest.test_case "keyed draws" `Quick test_keyed_draws;
          Alcotest.test_case "step kernel rounds" `Quick test_kernel_rounds;
        ] );
      ( "state",
        [
          Alcotest.test_case "xoshiro copy independent" `Quick test_xoshiro_copy_independent;
          Alcotest.test_case "keyed copy independent" `Quick test_keyed_copy_independent;
          Alcotest.test_case "pinned first outputs" `Quick test_pinned_streams;
          Alcotest.test_case "keyed is splitmix64" `Quick test_keyed_is_splitmix;
        ] );
    ]
