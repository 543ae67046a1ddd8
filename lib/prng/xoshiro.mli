(** xoshiro256++: the workhorse generator of the simulation engine.

    xoshiro256++ (Blackman, Vigna 2019) has 256 bits of state, passes
    BigCrush, and is substantially faster than the stdlib's [Random] while
    being trivially reproducible across OCaml versions.  States are
    created from a 64-bit seed via {!Splitmix64} expansion, as the authors
    recommend. *)

type t
(** Generator state: 256 bits held as four unboxed 64-bit words, so a
    draw allocates nothing.  Every draw updates it in place; binding it
    to a second name shares the stream, and only {!copy} gives an
    independent one. *)

val create : int64 -> t
(** [create seed] builds a state by expanding [seed] with SplitMix64.
    Equal seeds give equal streams. *)

val copy : t -> t
(** [copy t] is an independent state that will replay [t]'s future. *)

val next64 : t -> int64
(** [next64 t] returns the next 64 output bits. *)

val bits30 : t -> int
(** [bits30 t] returns 30 uniform bits as a non-negative [int]. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform on [\[0, n)].  Uses masked rejection, so
    there is no modulo bias.

    @raise Invalid_argument if [n <= 0]. *)

val float01 : t -> float
(** [float01 t] is uniform on [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0, 1]).

    Stream contract: when [p >= 1.0] or [p <= 0.0] the outcome is
    certain and {e no state is consumed} — the generator's subsequent
    draws are exactly as if [bernoulli] had not been called.  Callers
    rely on this to align streams across process variants (e.g. a
    COBRA run with [Bernoulli 1.0] branching replays draw-for-draw as
    [Fixed 2]); treat it as part of the interface, not an
    implementation detail. *)

val jump : t -> unit
(** [jump t] advances [t] by 2{^128} steps in place.  Splitting one stream
    into non-overlapping blocks this way is an alternative to per-trial
    reseeding when sequential consistency matters more than
    schedule-independence. *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place t a] applies a uniform Fisher–Yates shuffle. *)
