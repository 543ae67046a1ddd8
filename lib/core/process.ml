module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Keyed = Cobra_prng.Keyed
module Pool = Cobra_parallel.Pool

type branching = Fixed of int | Bernoulli of float

type rng_mode = Sequential | Keyed of { master : int }

let validate_branching = function
  | Fixed b -> if b < 1 then invalid_arg "Process: branching factor must be >= 1"
  | Bernoulli rho ->
      if not (rho >= 0.0 && rho <= 1.0) then
        invalid_arg "Process: Bernoulli branching needs rho in [0, 1]"

let expected_branching_factor = function
  | Fixed b -> float_of_int b
  | Bernoulli rho -> 1.0 +. rho

(* Number of neighbour selections a vertex makes this round. *)
let draw_fanout rng = function
  | Fixed b -> b
  | Bernoulli rho -> if Rng.bernoulli rng rho then 2 else 1

let select g rng ~lazy_ u =
  (* [u] comes from a frontier or a 0..n-1 loop, always in range. *)
  if lazy_ && Rng.bool rng then u else Graph.unsafe_random_neighbor g rng u

(* Below this cardinality the frontier is materialised as a vertex array
   and iterated directly — a tight counted loop instead of the word-scan
   iterator's nested loop and closure call per member.  Members come out
   in the same increasing order either way, so the RNG draw sequence is
   identical on both paths. *)
let sparse_frontier_threshold = 64

let cobra_step ?scratch g rng ~branching ~lazy_ ~current ~next =
  Bitset.clear next;
  let transmissions = ref 0 in
  let visit u =
    let fanout = draw_fanout rng branching in
    for _ = 1 to fanout do
      (* Safe: [select] returns a vertex of [g], in range for [next]. *)
      Bitset.unsafe_add next (select g rng ~lazy_ u)
    done;
    transmissions := !transmissions + fanout
  in
  let c = Bitset.cardinal current in
  if c > 0 && c <= sparse_frontier_threshold then begin
    (* A caller-provided scratch buffer removes the only per-round
       allocation of the sparse path; members come out in the same
       increasing order either way, so the draw sequence is unchanged. *)
    match scratch with
    | Some buf when Array.length buf >= c ->
        let m = Bitset.members_into current buf in
        for i = 0 to m - 1 do
          visit (Array.unsafe_get buf i)
        done
    | _ ->
        let members = Bitset.to_array current in
        for i = 0 to Array.length members - 1 do
          visit members.(i)
        done
  end
  else Bitset.iter visit current;
  !transmissions

let cobra_step_without_replacement g rng ~b ~current ~next =
  if b < 1 then invalid_arg "Process: branching factor must be >= 1";
  Bitset.clear next;
  let transmissions = ref 0 in
  (* Floyd's sample holds at most [b] distinct indices; one flat buffer
     reused across vertices replaces the per-vertex list (and its O(b²)
     [List.mem] over boxed cells) of the original implementation. *)
  let chosen = Array.make b 0 in
  Bitset.iter
    (fun u ->
      let d = Graph.degree g u in
      if d <= b then begin
        (* Fewer neighbours than the fan-out: inform all of them. *)
        Graph.iter_neighbors g u (fun v -> Bitset.unsafe_add next v);
        transmissions := !transmissions + d
      end
      else begin
        (* Floyd's algorithm: sample b distinct indices from [0, d).
           Draw order matches the list-based version exactly, so pinned
           goldens are unaffected. *)
        let k = ref 0 in
        for j = d - b to d - 1 do
          let r = Rng.int_below rng (j + 1) in
          let dup = ref false in
          for i = 0 to !k - 1 do
            if Array.unsafe_get chosen i = r then dup := true
          done;
          Array.unsafe_set chosen !k (if !dup then j else r);
          incr k
        done;
        for i = 0 to !k - 1 do
          Bitset.unsafe_add next (Graph.unsafe_neighbor g u (Array.unsafe_get chosen i))
        done;
        transmissions := !transmissions + b
      end)
    current;
  !transmissions

let bips_step g rng ~branching ~lazy_ ~source ~current ~next =
  Bitset.clear next;
  let n = Graph.n g in
  for u = 0 to n - 1 do
    if u <> source then begin
      let fanout = draw_fanout rng branching in
      let infected = ref false in
      for _ = 1 to fanout do
        (* All [fanout] selections are always made, matching the process
           definition; short-circuiting after a hit would not change the
           law of A_{t+1} but would change the stream of random draws,
           and reproducibility across variants is worth two extra calls. *)
        if Bitset.mem current (select g rng ~lazy_ u) then infected := true
      done;
      if !infected then Bitset.unsafe_add next u
    end
  done;
  Bitset.add next source

let sis_step g rng ~branching ~lazy_ ~current ~next =
  Bitset.clear next;
  let n = Graph.n g in
  for u = 0 to n - 1 do
    let fanout = draw_fanout rng branching in
    let infected = ref false in
    for _ = 1 to fanout do
      if Bitset.mem current (select g rng ~lazy_ u) then infected := true
    done;
    if !infected then Bitset.unsafe_add next u
  done

(* --- keyed, domain-shardable step kernels ---

   The sequential kernels above thread one stream through the round, so
   results depend on iteration order.  The keyed kernels draw every
   vertex's randomness from the counter-based [Keyed] stream positioned
   at (round, vertex): the round becomes a pure map over vertices, and a
   pool can shard it over domains with bit-identical results for any
   domain count — including the serial fallback below the density
   threshold. *)

type keyed_ctx = {
  streams : Keyed.t array; (* one cursor per worker (0 = caller) *)
  mutable scratch : Bitset.t array; (* per-worker next buffers; lazily allocated *)
  shard_tx : int array; (* per-worker transmission accumulators *)
  shard_card : int array; (* per-worker popcount accumulators (scan kernels) *)
  members : int array; (* sparse-path frontier buffer *)
  (* Frontier-local BIPS/SIS rounds: the graph's minimum degree (-1
     until the first such round) and the set of vertices drawn for. *)
  mutable min_degree : int;
  mutable draw_set : Bitset.t;
  pool : Pool.t option;
  nworkers : int;
  dense_threshold : int;
  (* Auto-tuner (active only when the caller did not pin a threshold).
     Both keyed paths produce bit-identical results, so the scheduler is
     free to A/B-probe them: the first dense round runs serial, the
     second sharded, each measured as an EWMA of cost per member; every
     round after that takes the measured winner, with the loser re-probed
     every [reprobe_period] dense rounds so a machine whose behaviour
     shifts (or a frontier whose density does) is re-evaluated.  On a
     box where sharding loses — e.g. fewer cores than domains — dense
     rounds converge to the serial path and pay only the amortised
     probe. *)
  auto_tune : bool;
  mutable dense_rounds : int;
  mutable serial_ns_per : float;
  mutable par_ns_per : float;
}

(* Below this frontier/universe size a parallel round costs more than it
   saves; the serial keyed path is taken (results are identical either
   way, so this is purely a scheduling decision). *)
let default_dense_threshold = 1024

(* Dense rounds between re-probes of the losing path. *)
let reprobe_period = 32

let make_keyed_ctx ?pool ?dense_threshold _g ~master =
  let nworkers = match pool with None -> 1 | Some p -> Pool.size p in
  {
    streams = Array.init nworkers (fun _ -> Keyed.create ~master);
    scratch = [||];
    shard_tx = Array.make nworkers 0;
    shard_card = Array.make nworkers 0;
    members = Array.make sparse_frontier_threshold 0;
    min_degree = -1;
    draw_set = Bitset.create 0;
    pool;
    nworkers;
    dense_threshold = Option.value dense_threshold ~default:default_dense_threshold;
    auto_tune = Option.is_none dense_threshold && nworkers > 1;
    dense_rounds = 0;
    serial_ns_per = Float.nan;
    par_ns_per = Float.nan;
  }

(* Scratch sets are only needed once a dense COBRA round actually
   shards; BIPS/SIS and serial-only runs never pay the allocation. *)
let ensure_scratch ctx n =
  if Array.length ctx.scratch = 0 then
    ctx.scratch <- Array.init ctx.nworkers (fun _ -> Bitset.create n)

(* Likewise the frontier-local BIPS/SIS state: COBRA contexts never
   build it. *)
let ensure_local ctx g =
  if ctx.min_degree < 0 then begin
    ctx.min_degree <- Graph.min_degree g;
    ctx.draw_set <- Bitset.create (Graph.n g)
  end

let[@inline] ewma old x = if Float.is_nan old then x else (0.7 *. old) +. (0.3 *. x)

(* Path decision for a dense round under auto-tune.  Counts the round
   and answers whether it should shard: first two dense rounds probe
   serial then sharded; afterwards the EWMA winner runs, except on
   re-probe rounds where the loser gets a fresh measurement. *)
let choose_parallel ctx =
  if not ctx.auto_tune then true
  else begin
    ctx.dense_rounds <- ctx.dense_rounds + 1;
    if Float.is_nan ctx.serial_ns_per then false
    else if Float.is_nan ctx.par_ns_per then true
    else
      let par_wins = ctx.par_ns_per <= ctx.serial_ns_per in
      if ctx.dense_rounds mod reprobe_period = 0 then not par_wins else par_wins
  end

(* Record one observation of [elapsed_s] spent moving [members] vertices
   through the chosen path. *)
let record_round ctx ~parallel ~members ~elapsed_s =
  if ctx.auto_tune && members > 0 then begin
    let per = elapsed_s *. 1e9 /. float_of_int members in
    if parallel then ctx.par_ns_per <- ewma ctx.par_ns_per per
    else ctx.serial_ns_per <- ewma ctx.serial_ns_per per
  end

(* Chunk width (in bitset words) for the claim-based dense scan: small
   enough that ~8 chunks per worker exist for load balancing and that a
   dense chunk holds only a few hundred frontier members, large enough
   that the claim fetch-and-add stays negligible.  Population-adaptive:
   a dense frontier gets finer chunks, so a straggler's last claim is
   bounded work regardless of how the members cluster. *)
let[@inline] scan_chunk ~card ~nw ~workers =
  let by_balance = max 1 (nw / (workers * 8)) in
  let by_work = if card > 0 then max 1 (nw * 384 / card) else by_balance in
  max 4 (min by_balance by_work)

let[@inline] keyed_fanout k = function
  | Fixed b -> b
  | Bernoulli rho -> if Keyed.bernoulli k rho then 2 else 1

let[@inline] keyed_select g k ~lazy_ u =
  if lazy_ && Keyed.bool k then u else Graph.unsafe_keyed_neighbor g k u

(* With [~raw] a fan-out target is written as a bare bit and [into]'s
   cardinality is left for the caller to recount: [unsafe_add]'s
   already-a-member test is a coin flip on a dense round, and its
   mispredictions cost more than the draws. *)
let[@inline] add_target ~raw into v =
  if raw then Bitset.unsafe_set_bit into v else Bitset.unsafe_add into v

(* Canonical per-vertex draw sequence of the keyed COBRA step: fan-out
   decision first, then the selections — the same order as the
   sequential kernel, so variant alignment (Bernoulli 1.0 ≡ Fixed 2)
   carries over.  [base] is the hoisted round key ({!Keyed.round_base}),
   so positioning costs one finaliser application; the non-lazy fan-out
   additionally hoists the degree's rejection mask across the
   selections.  Draw consumption is identical to the naive
   position/int_below sequence, so results match it bit for bit. *)
let[@inline] cobra_keyed_visit g k ~base ~branching ~lazy_ ~raw ~into u =
  Keyed.position_at k ~base ~vertex:u;
  let fanout = keyed_fanout k branching in
  if lazy_ then
    for _ = 1 to fanout do
      add_target ~raw into (keyed_select g k ~lazy_:true u)
    done
  else begin
    let d = Graph.unsafe_degree g u in
    if d <= 1 then
      (* d = 0 raises exactly as [int_below 0] always did; d = 1
         consumes no draw on either path. *)
      for _ = 1 to fanout do
        add_target ~raw into (Graph.unsafe_neighbor g u (Keyed.int_below k d))
      done
    else begin
      let mask = Keyed.mask_below d in
      for _ = 1 to fanout do
        add_target ~raw into (Graph.unsafe_neighbor g u (Keyed.masked_below k ~mask d))
      done
    end
  end;
  fanout

(* The serial keyed COBRA round: shared by the poolless/sparse path and
   by dense rounds whenever the tuner has parked the threshold above the
   frontier.  A frontier with at least one member per bitset word writes
   raw bits and recounts [next] in one popcount sweep afterwards, which
   costs at most one word per member. *)
let cobra_step_keyed_serial g ctx ~round ~branching ~lazy_ ~current ~next c =
  Bitset.clear next;
  let k = ctx.streams.(0) in
  let base = Keyed.round_base k ~round in
  let raw = c >= Bitset.num_words current in
  let tx = ref 0 in
  let visit u = tx := !tx + cobra_keyed_visit g k ~base ~branching ~lazy_ ~raw ~into:next u in
  if c > 0 && c <= sparse_frontier_threshold then begin
    let m = Bitset.members_into current ctx.members in
    for i = 0 to m - 1 do
      visit (Array.unsafe_get ctx.members i)
    done
  end
  else Bitset.iter visit current;
  if raw then Bitset.refresh_cardinal next;
  !tx

(* Dense sharded COBRA round, one barrier: workers claim word-range
   chunks of the frontier and scan them into private scratch sets as raw
   bits (fan-out targets land anywhere in the universe, so outputs
   cannot share [next] directly).  The submitting thread is worker 0 —
   it works instead of spinning at the join.  The scratches are then
   OR-drained into [next] serially: the sweep is O(num_words) word ops,
   far below the cost of waking the pool again, and it both counts the
   merged cardinality and re-zeroes the scratches for the next round. *)
let cobra_step_keyed_par g ctx pool ~round ~branching ~lazy_ ~current ~next c =
  let n = Graph.n g in
  let nw = Bitset.num_words current in
  ensure_scratch ctx n;
  let base = Keyed.round_base ctx.streams.(0) ~round in
  let chunk = scan_chunk ~card:c ~nw ~workers:ctx.nworkers in
  Pool.parallel_chunked pool ~lo:0 ~hi:nw ~chunk (fun ~worker ~lo ~hi ->
      let into = ctx.scratch.(worker) in
      let k = ctx.streams.(worker) in
      let tx = ref 0 in
      Bitset.iter_range
        (fun u -> tx := !tx + cobra_keyed_visit g k ~base ~branching ~lazy_ ~raw:true ~into u)
        current ~lo ~hi;
      ctx.shard_tx.(worker) <- ctx.shard_tx.(worker) + !tx);
  let card = Bitset.drain_words_range ~into:next ctx.scratch ~lo:0 ~hi:nw in
  Bitset.unsafe_set_cardinal next card;
  let tx = ref 0 in
  for w = 0 to ctx.nworkers - 1 do
    tx := !tx + ctx.shard_tx.(w);
    ctx.shard_tx.(w) <- 0
  done;
  !tx

let cobra_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next =
  let c = Bitset.cardinal current in
  match ctx.pool with
  | Some pool when ctx.nworkers > 1 && c > ctx.dense_threshold ->
      let t0 = if ctx.auto_tune then Unix.gettimeofday () else 0.0 in
      let parallel = choose_parallel ctx in
      let tx =
        if parallel then cobra_step_keyed_par g ctx pool ~round ~branching ~lazy_ ~current ~next c
        else cobra_step_keyed_serial g ctx ~round ~branching ~lazy_ ~current ~next c
      in
      if ctx.auto_tune then
        record_round ctx ~parallel ~members:c ~elapsed_s:(Unix.gettimeofday () -. t0);
      tx
  | _ -> cobra_step_keyed_serial g ctx ~round ~branching ~lazy_ ~current ~next c

let[@inline] keyed_infected g k ~base ~branching ~lazy_ ~current u =
  Keyed.position_at k ~base ~vertex:u;
  let fanout = keyed_fanout k branching in
  let infected = ref false in
  for _ = 1 to fanout do
    if Bitset.mem current (keyed_select g k ~lazy_ u) then infected := true
  done;
  !infected

(* BIPS/SIS scan every vertex and write only bit [u], so chunks aligned
   to word boundaries write disjoint words of [next] directly — no
   scratch sets, no merge.  Each chunk zeroes exactly the words it then
   writes and accumulates its own popcount, so neither a full clear nor
   a full cardinality sweep runs: the only serial work is summing one
   integer per worker. *)
let keyed_scan_par pool ctx ~n ~next body =
  let nw = Bitset.num_words next in
  let chunk = max 4 (nw / (ctx.nworkers * 8)) in
  Pool.parallel_chunked pool ~lo:0 ~hi:nw ~chunk (fun ~worker ~lo ~hi ->
      let k = ctx.streams.(worker) in
      Bitset.clear_words_range next ~lo ~hi;
      let vlo = lo * Bitset.bits_per_word in
      let vhi = min n (hi * Bitset.bits_per_word) in
      for u = vlo to vhi - 1 do
        body k u
      done;
      ctx.shard_card.(worker) <-
        ctx.shard_card.(worker) + Bitset.popcount_words_range next ~lo ~hi);
  let card = ref 0 in
  for w = 0 to ctx.nworkers - 1 do
    card := !card + ctx.shard_card.(w);
    ctx.shard_card.(w) <- 0
  done;
  Bitset.unsafe_set_cardinal next !card

(* Dispatch one full-universe scan round: the sharded scan when the
   pool is engaged and (under auto-tune) measured to win, the serial
   loop otherwise.  Same probe/record protocol as the COBRA step. *)
let keyed_scan_round ctx ~n ~par ~serial =
  match ctx.pool with
  | Some pool when ctx.nworkers > 1 && n > ctx.dense_threshold ->
      let t0 = if ctx.auto_tune then Unix.gettimeofday () else 0.0 in
      let parallel = choose_parallel ctx in
      if parallel then par pool else serial ();
      if ctx.auto_tune then
        record_round ctx ~parallel ~members:n ~elapsed_s:(Unix.gettimeofday () -. t0)
  | _ -> serial ()

(* --- frontier-local BIPS/SIS rounds ---

   A vertex's outcome depends on its draws only when one selection can
   land in A and another can miss it.  With no neighbour in A (and, if
   lazy, not itself in A) it stays out whatever it draws; with every
   neighbour in A (and, if lazy, itself in A) it is in whatever it
   draws.  Keyed draws are positioned per (round, vertex), so skipping
   those vertices leaves every other vertex's draws, and so the round,
   bit-identical.  Two regimes pay for the O(vol) neighbourhood sweep:

   - sparse, vol(A) <= n: draw only over N(A) (∪ A when lazy);
   - late, vol(V \ A) <= n: every vertex outside D = N(V \ A)
     (∪ V \ A when lazy) is infected without a draw; draw only over D.

   Any other round scans in full.  Sequential streams cannot skip: a
   skipped vertex would shift every later draw.  Local rounds run
   serially and stay out of the auto-tuner, whose ns-per-member keeps
   measuring full scans.  A graph with an isolated vertex always scans
   in full, so that vertex's draw raises as it always has. *)

(* [into] := N(s), plus [s] itself when [lazy_]. *)
let neighbourhood_into g ~lazy_ s ~into =
  Bitset.clear into;
  let n = Bitset.capacity s in
  let u = ref (Bitset.next_member s 0) in
  while !u < n do
    let a = !u in
    if lazy_ then Bitset.unsafe_set_bit into a;
    for i = 0 to Graph.unsafe_degree g a - 1 do
      Bitset.unsafe_set_bit into (Graph.unsafe_neighbor g a i)
    done;
    u := Bitset.next_member s (a + 1)
  done;
  Bitset.refresh_cardinal into

(* Whether vol(s) <= cap; stops summing once it is exceeded. *)
let volume_at_most g s cap =
  let n = Bitset.capacity s in
  let vol = ref 0 and u = ref (Bitset.next_member s 0) in
  while !u < n && !vol <= cap do
    vol := !vol + Graph.unsafe_degree g !u;
    u := Bitset.next_member s (!u + 1)
  done;
  !vol <= cap

(* Adds to [next] the members of [ctx.draw_set] (bar [skip]) that their
   draws infect. *)
let draw_members g ctx ~base ~branching ~lazy_ ~skip ~current ~next =
  let k = ctx.streams.(0) and d = ctx.draw_set in
  let n = Bitset.capacity d in
  let u = ref (Bitset.next_member d 0) in
  while !u < n do
    let v = !u in
    if v <> skip && keyed_infected g k ~base ~branching ~lazy_ ~current v then
      Bitset.unsafe_add next v;
    u := Bitset.next_member d (v + 1)
  done

(* Runs the round frontier-locally and answers [true] when a regime
   applies; [false] leaves [next] for the full scan to overwrite.  The
   cardinality bounds vol(S) >= |S| * dmin rule a regime out in O(1). *)
let keyed_local_round g ctx ~base ~branching ~lazy_ ~skip ~current ~next =
  ensure_local ctx g;
  let n = Graph.n g and dmin = ctx.min_degree in
  let c = Bitset.cardinal current in
  if dmin = 0 then false
  else if c * dmin <= n && volume_at_most g current n then begin
    neighbourhood_into g ~lazy_ current ~into:ctx.draw_set;
    Bitset.clear next;
    draw_members g ctx ~base ~branching ~lazy_ ~skip ~current ~next;
    true
  end
  else if
    (n - c) * dmin <= n
    && begin
         (* [next] := V \ A, the set whose volume decides. *)
         Bitset.fill next;
         Bitset.diff_into ~into:next current;
         volume_at_most g next n
       end
  then begin
    neighbourhood_into g ~lazy_ next ~into:ctx.draw_set;
    Bitset.fill next;
    Bitset.diff_into ~into:next ctx.draw_set;
    draw_members g ctx ~base ~branching ~lazy_ ~skip ~current ~next;
    true
  end
  else false

let bips_step_keyed g ctx ~round ~branching ~lazy_ ~source ~current ~next =
  let n = Graph.n g in
  let base = Keyed.round_base ctx.streams.(0) ~round in
  if not (keyed_local_round g ctx ~base ~branching ~lazy_ ~skip:source ~current ~next) then
    keyed_scan_round ctx ~n
      ~par:(fun pool ->
        keyed_scan_par pool ctx ~n ~next (fun k u ->
            if u <> source && keyed_infected g k ~base ~branching ~lazy_ ~current u then
              Bitset.unsafe_set_bit next u))
      ~serial:(fun () ->
        Bitset.clear next;
        let k = ctx.streams.(0) in
        for u = 0 to n - 1 do
          if u <> source && keyed_infected g k ~base ~branching ~lazy_ ~current u then
            Bitset.unsafe_add next u
        done);
  Bitset.add next source

let sis_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next =
  let n = Graph.n g in
  let base = Keyed.round_base ctx.streams.(0) ~round in
  if not (keyed_local_round g ctx ~base ~branching ~lazy_ ~skip:(-1) ~current ~next) then
    keyed_scan_round ctx ~n
      ~par:(fun pool ->
        keyed_scan_par pool ctx ~n ~next (fun k u ->
            if keyed_infected g k ~base ~branching ~lazy_ ~current u then
              Bitset.unsafe_set_bit next u))
      ~serial:(fun () ->
        Bitset.clear next;
        let k = ctx.streams.(0) in
        for u = 0 to n - 1 do
          if keyed_infected g k ~base ~branching ~lazy_ ~current u then Bitset.unsafe_add next u
        done)

let bips_candidate_set g ~source ~current ~into =
  (* C = (N(A) ∪ {v}) \ B_fix, with B_fix = { u : N(u) ⊆ A }.  A vertex
     escapes B_fix exactly when it has a neighbour outside A, so
     C = (N(A) ∪ {v}) ∩ N(V \ A). *)
  let rest = Bitset.create (Graph.n g) in
  Bitset.fill rest;
  Bitset.diff_into ~into:rest current;
  neighbourhood_into g ~lazy_:false rest ~into;
  neighbourhood_into g ~lazy_:false current ~into:rest;
  Bitset.add rest source;
  Bitset.inter_into ~into rest
