(** One synchronous round of the COBRA and BIPS processes.

    These are the exact set processes of the paper (Section 1):

    {b COBRA} with starting set [C0 = C] and branching factor [b]: each
    vertex [v] in [C_t] independently chooses [b] neighbours uniformly at
    random {e with replacement}, and [C_{t+1}] is the set of all chosen
    vertices (multiple particles arriving at a vertex coalesce into one).

    {b BIPS} with persistent source [v]: every vertex [u <> v]
    independently chooses [b] neighbours uniformly with replacement and
    belongs to [A_{t+1}] iff at least one choice lies in [A_t]; the source
    belongs to every [A_t].

    Both processes support the paper's branching variants:
    - [Fixed b] for integer [b >= 1] ([Fixed 1] is the simple random walk
      in COBRA form, [Fixed 2] the main object of study);
    - [Bernoulli rho] for expected branching factor [1 + rho]
      (Section 6): a particle splits in two with probability [rho];
      dually a BIPS vertex samples two neighbours with probability [rho]
      and one otherwise.

    The [lazy_] flag implements the lazy variants: each individual
    neighbour selection is replaced, with probability 1/2, by the vertex
    itself.  On bipartite graphs the plain processes still run and cover,
    but the spectral parameter is degenerate ([lambda = 1]) so the
    paper's regular-graph bounds are stated for the lazy variant there
    (remark after Theorem 1.2); the lazy walk's eigenvalues
    [(1 + lambda_i)/2] are non-negative, restoring a positive gap.

    Sets are {!Cobra_bitset.Bitset.t} over the vertex universe; the step
    functions write into a caller-provided [next] set so the simulation
    loop runs allocation-free. *)

type rng_mode =
  | Sequential
      (** One mutable stream threaded through the run in iteration
          order — the historical model, and the one the pinned goldens
          in [test_determinism] are recorded under. *)
  | Keyed of { master : int }
      (** Counter-based keyed randomness ({!Cobra_prng.Keyed}): every
          draw is a pure function of [(master, round, vertex, draw
          index)], so a round can be sharded over any number of domains
          with bit-identical results.  Keyed runs are {e not}
          draw-compatible with [Sequential] runs — the two models define
          different (equally valid) samples of the same process law. *)

type branching =
  | Fixed of int  (** [b] independent uniform neighbour choices. *)
  | Bernoulli of float
      (** [Bernoulli rho]: two choices with probability [rho], one
          otherwise — expected branching factor [1 + rho].

          Stream alignment at the extremes: the split decision is drawn
          with {!Cobra_prng.Rng.bernoulli}, which consumes no randomness
          when the probability is 0 or 1.  Consequently a [Bernoulli 1.0]
          run is draw-for-draw identical to [Fixed 2], and
          [Bernoulli 0.0] to [Fixed 1], under the same seed — a guarantee
          tested in the suite and safe to rely on when comparing
          variants. *)

val validate_branching : branching -> unit
(** @raise Invalid_argument on [Fixed b] with [b < 1] or
    [Bernoulli rho] with [rho] outside [[0, 1]].

    The step functions below do {e not} validate: they sit in the
    per-round hot loop, so the run entry points ({!Cobra}, {!Bips},
    {!Sis}) call this once per run instead.  Code driving the steps
    directly with untrusted parameters should do the same. *)

val expected_branching_factor : branching -> float
(** [Fixed b -> float b]; [Bernoulli rho -> 1 + rho]. *)

val sparse_frontier_threshold : int
(** Frontier cardinality at or below which {!cobra_step} iterates a
    materialised member array instead of the word-scan iterator.  A
    [?scratch] buffer of at least this length removes the sparse path's
    per-round allocation. *)

val cobra_step :
  ?scratch:int array -> Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> branching:branching ->
  lazy_:bool -> current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> int
(** [cobra_step g rng ~branching ~lazy_ ~current ~next] clears [next] and
    fills it with [C_{t+1}] given [C_t = current].  Returns the number of
    transmissions performed this round (one per particle sent, counting
    lazy self-selections).

    [scratch], when provided with length at least
    [min (cardinal current) sparse_frontier_threshold], is used by the
    sparse-frontier fast path in place of a freshly allocated member
    array; the run loops pass a per-run buffer.  Draw order and results
    are identical with or without it. *)

val cobra_step_without_replacement :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> b:int ->
  current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> int
(** Ablation variant: each active vertex sends to [b] {e distinct}
    uniformly random neighbours (or to all of them when its degree is
    below [b]).  The paper defines COBRA with replacement; experiment
    E14 uses this variant to show the choice does not affect the
    cover-time shape.  Returns the transmissions performed.

    @raise Invalid_argument if [b < 1]. *)

val bips_step :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> branching:branching -> lazy_:bool ->
  source:int -> current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> unit
(** [bips_step g rng ~branching ~lazy_ ~source ~current ~next] clears
    [next] and fills it with [A_{t+1} = Infect(A_t) ∪ {source}] given
    [A_t = current]. *)

val sis_step :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> branching:branching -> lazy_:bool ->
  current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> unit
(** [sis_step] is the BIPS refresh dynamic {e without} a persistent
    source: every vertex (including previously infected ones) samples
    its neighbours afresh.  The resulting SIS chain has two absorbing
    states — all-susceptible and all-infected — and the paper's point
    that the persistent source forces eventual full infection is
    exactly the statement that BIPS removes the first one.  Used by the
    E15 extension experiment. *)

(** {1 Keyed, domain-shardable step kernels}

    The kernels above thread one sequential stream through the round, so
    their results depend on iteration order and cannot be sharded.  The
    [_keyed] kernels draw each vertex's randomness from a counter-based
    stream positioned at [(round, vertex)] (see {!Cobra_prng.Keyed} and
    {!rng_mode}): the round is a pure map over vertices, and with a pool
    it executes sharded over domains — COBRA over the frontier's word
    ranges into per-shard scratch sets that are OR-reduced, BIPS/SIS
    over word-aligned vertex ranges written directly into disjoint words
    of [next].  Results are bit-identical for every pool size (including
    none); a density threshold keeps sparse rounds on the serial path.

    The pool's nesting rule applies: call these only from the pool's
    submitting thread, never from inside another parallel job (in
    particular not from a [Montecarlo] trial body running on the same
    pool). *)

type keyed_ctx
(** Per-run state of the keyed kernels: one keyed cursor and scratch
    set per shard, the sparse-path buffer, the graph's minimum degree
    and draw set of frontier-local BIPS/SIS rounds, and the scheduling
    knobs.  Create once per run; reuse across runs only when the graph
    and master seed are the same. *)

val make_keyed_ctx :
  ?pool:Cobra_parallel.Pool.t -> ?dense_threshold:int -> Cobra_graph.Graph.t ->
  master:int -> keyed_ctx
(** [make_keyed_ctx g ~master] builds the context for keyed rounds of
    master seed [master] on [g].  With [pool], dense rounds shard over
    [Pool.size pool] shards; without it every round runs serially.
    [dense_threshold] (default 1024) is the frontier (COBRA) or universe
    (BIPS/SIS) size above which the sharded path engages — results do
    not depend on it, only scheduling does. *)

val cobra_step_keyed :
  Cobra_graph.Graph.t -> keyed_ctx -> round:int -> branching:branching -> lazy_:bool ->
  current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> int
(** Keyed {!cobra_step} for round number [round] (1-based, matching the
    run loops' counter).  Returns the round's transmissions. *)

val bips_step_keyed :
  Cobra_graph.Graph.t -> keyed_ctx -> round:int -> branching:branching -> lazy_:bool ->
  source:int -> current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> unit
(** Keyed {!bips_step}.  A sparse round ([vol(A) <= n]) draws only for
    [N(A)] (plus [A] when lazy), since every other vertex stays out; a
    late round ([vol(V \ A) <= n]) draws only for [N(V \ A)] (plus
    [V \ A] when lazy), since every other vertex is infected; other
    rounds scan every vertex.  Keyed draws depend only on
    [(master, round, vertex)], so the result is the same as a full
    scan's.  A graph with an isolated vertex always scans in full. *)

val sis_step_keyed :
  Cobra_graph.Graph.t -> keyed_ctx -> round:int -> branching:branching -> lazy_:bool ->
  current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> unit
(** Keyed {!sis_step}, with the frontier-local rounds of
    {!bips_step_keyed}. *)

val bips_candidate_set :
  Cobra_graph.Graph.t -> source:int -> current:Cobra_bitset.Bitset.t ->
  into:Cobra_bitset.Bitset.t -> unit
(** [bips_candidate_set g ~source ~current ~into] computes the paper's
    candidate set (definition (6), Section 3):
    [C = (N(A) ∪ {v}) \ B_fix] where [B_fix = { u : N(u) ⊆ A }] — the
    vertices whose membership in the next infected set is genuinely
    random.  The paper proves [C] is never empty before completion;
    Corollary 5.2 lower-bounds its size on regular graphs. *)
