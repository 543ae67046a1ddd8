module A1 = Bigarray.Array1

type int32_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

(* One physical layout: C-layout int32 bigarrays, 4 bytes per entry, so
   the adjacency of an m-edge graph costs 8m bytes, and the storage can
   be backed by [Unix.map_file] so multi-GiB graphs open in O(1) and
   page in on demand (see {!Cgr}).  Loads compile to an unboxed 32-bit
   read + sign extension, allocation-free.

   Every stored value must fit in an int32: vertex ids (adj entries)
   and offsets (bounded by 2m) must be < 2^31.  Larger graphs are
   refused with [Invalid_argument] (see [check_fits]). *)
type csr = { offsets : int32_array; adj : int32_array }
type t = { n : int; m : int; offsets : int32_array; adj : int32_array }

let n t = t.n
let m t = t.m
let is_packed (_ : t) = true

(* Largest value representable in the int32 storage. *)
let max_packed = Int32.to_int Int32.max_int

let check_fits ~n ~entries =
  if n > max_packed || entries > max_packed then
    invalid_arg
      (Printf.sprintf "Graph: graph too large for int32 CSR storage (n=%d, 2m=%d, limit %d)" n
         entries max_packed)

let check_vertex t u =
  if u < 0 || u >= t.n then
    invalid_arg (Printf.sprintf "Graph: vertex %d out of range [0, %d)" u t.n)

(* Trusted constructor for the .cgr loaders: the caller guarantees the
   CSR invariants (offsets monotone with offsets.(n) = 2m, every slice
   sorted and duplicate-free, edges symmetric, no self-loops).  Only
   the cheap length consistency is re-checked here — re-validating the
   structure would cost the O(m) pass this constructor exists to
   avoid. *)
let unsafe_of_packed_csr ~n ~m ~offsets ~adj =
  if n < 0 || m < 0 || A1.dim offsets <> n + 1
     || Int32.to_int (A1.get offsets n) <> 2 * m
     || A1.dim adj <> 2 * m
  then invalid_arg "Graph.unsafe_of_packed_csr: inconsistent CSR arrays";
  { n; m; offsets; adj }

(* --- Construction by counting sort ---

   Edges arrive packed one per word as [(u lsl 31) lor v].  One pass
   counts degrees, a prefix sum turns them into offsets, one pass
   scatters both directions straight into the int32 adjacency, then
   each slice is sorted and deduplicated in place (the write pointer
   never overtakes the read position because compaction only ever
   shrinks earlier slices).  Peak memory is the edge buffer (1 word per
   edge) plus the int32 adjacency (1 word-equivalent per edge) plus
   O(n) counters.  Sorted integer slices are unique, so the CSR values
   do not depend on the order the edges arrive in. *)

let edge_mask = (1 lsl 31) - 1

let unsafe_of_edge_keys ~n ~count keys =
  check_fits ~n ~entries:0;
  let deg = Array.make (max n 1) 0 in
  for k = 0 to count - 1 do
    let p = Array.unsafe_get keys k in
    let u = p lsr 31 and v = p land edge_mask in
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1
  done;
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + deg.(u)
  done;
  let adj = A1.create Bigarray.int32 Bigarray.c_layout (2 * count) in
  (* Reuse [deg] as the scatter cursor to avoid a second O(n) array. *)
  Array.blit offsets 0 deg 0 n;
  for k = 0 to count - 1 do
    let p = Array.unsafe_get keys k in
    let u = p lsr 31 and v = p land edge_mask in
    A1.unsafe_set adj deg.(u) (Int32.of_int v);
    deg.(u) <- deg.(u) + 1;
    A1.unsafe_set adj deg.(v) (Int32.of_int u);
    deg.(v) <- deg.(v) + 1
  done;
  let write = ref 0 in
  for u = 0 to n - 1 do
    let lo = offsets.(u) and hi = offsets.(u + 1) in
    offsets.(u) <- !write;
    if hi > lo then begin
      Int_sort.sort_int32_range adj ~lo ~hi;
      A1.unsafe_set adj !write (A1.unsafe_get adj lo);
      incr write;
      for i = lo + 1 to hi - 1 do
        let x = A1.unsafe_get adj i in
        if x <> A1.unsafe_get adj (i - 1) then begin
          A1.unsafe_set adj !write x;
          incr write
        end
      done
    end
  done;
  let total = !write in
  offsets.(n) <- total;
  check_fits ~n ~entries:total;
  (* [Array1.sub] is a zero-copy view, so trimming the dedup slack does
     not reallocate the adjacency. *)
  let adj = if total = A1.dim adj then adj else A1.sub adj 0 total in
  let poffsets = A1.create Bigarray.int32 Bigarray.c_layout (n + 1) in
  for i = 0 to n do
    A1.unsafe_set poffsets i (Int32.of_int (Array.unsafe_get offsets i))
  done;
  { n; m = total / 2; offsets = poffsets; adj }

let of_edge_array ~n edges =
  if n < 0 then invalid_arg "Graph.of_edge_array: negative n";
  let keys =
    Array.map
      (fun (u, v) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg
            (Printf.sprintf "Graph.of_edge_array: edge (%d, %d) out of range [0, %d)" u v n);
        if u = v then invalid_arg (Printf.sprintf "Graph.of_edge_array: self-loop at %d" u);
        (u lsl 31) lor v)
      edges
  in
  unsafe_of_edge_keys ~n ~count:(Array.length keys) keys

let of_edges ~n edges = of_edge_array ~n (Array.of_list edges)

let storage_bytes t = 4 * (A1.dim t.offsets + A1.dim t.adj)

(* --- Accessors --- *)

let[@inline] offset t u = Int32.to_int (A1.unsafe_get t.offsets u)

(* [degree] without the vertex-range check — the companion of
   [unsafe_neighbor] for kernels that draw many indices below the same
   degree and hoist the rejection mask across the fan-out. *)
let[@inline] unsafe_degree t u = offset t (u + 1) - offset t u

let degree t u =
  check_vertex t u;
  unsafe_degree t u

let max_degree t =
  let best = ref 0 in
  for u = 0 to t.n - 1 do
    let d = unsafe_degree t u in
    if d > !best then best := d
  done;
  !best

let min_degree t =
  if t.n = 0 then 0
  else begin
    let best = ref max_int in
    for u = 0 to t.n - 1 do
      let d = unsafe_degree t u in
      if d < !best then best := d
    done;
    !best
  end

let is_regular t = t.n <= 1 || max_degree t = min_degree t

(* [neighbor] without the vertex/index checks, for inner loops whose
   indices come from [int_below (degree u)]. *)
let[@inline] unsafe_neighbor t u i = Int32.to_int (A1.unsafe_get t.adj (offset t u + i))

let neighbor t u i =
  check_vertex t u;
  let d = unsafe_degree t u in
  if i < 0 || i >= d then
    invalid_arg (Printf.sprintf "Graph.neighbor: index %d out of range [0, %d)" i d);
  unsafe_neighbor t u i

(* No vertex-range or isolation check and no array bounds checks: the
   simulation step loops call this once per transmission with vertices
   that are in range by construction.  Draws exactly the same single
   [int_below] as [random_neighbor].  An isolated vertex makes
   [int_below] raise on 0. *)
let[@inline] unsafe_random_neighbor t rng u =
  let lo = offset t u in
  Int32.to_int (A1.unsafe_get t.adj (lo + Cobra_prng.Rng.int_below rng (offset t (u + 1) - lo)))

(* Keyed-draw twin of [unsafe_random_neighbor]: same addressing, the
   index comes from a counter-based stream instead of the sequential
   one, so sharded step kernels can call it from any domain. *)
let[@inline] unsafe_keyed_neighbor t k u =
  let lo = offset t u in
  Int32.to_int (A1.unsafe_get t.adj (lo + Cobra_prng.Keyed.int_below k (offset t (u + 1) - lo)))

let random_neighbor t rng u =
  check_vertex t u;
  if unsafe_degree t u = 0 then
    invalid_arg (Printf.sprintf "Graph.random_neighbor: vertex %d is isolated" u);
  unsafe_random_neighbor t rng u

let neighbors t u =
  check_vertex t u;
  Array.init (unsafe_degree t u) (unsafe_neighbor t u)

let iter_neighbors t u f =
  check_vertex t u;
  for i = offset t u to offset t (u + 1) - 1 do
    f (Int32.to_int (A1.unsafe_get t.adj i))
  done

let fold_neighbors t u f init =
  check_vertex t u;
  let acc = ref init in
  iter_neighbors t u (fun v -> acc := f !acc v);
  !acc

let mem_edge t u v =
  check_vertex t u;
  check_vertex t v;
  let lo = ref 0 and hi = ref (unsafe_degree t u - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = unsafe_neighbor t u mid in
    if w = v then found := true else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let iter_edges t f =
  for u = 0 to t.n - 1 do
    let d = unsafe_degree t u in
    for i = 0 to d - 1 do
      let v = unsafe_neighbor t u i in
      if u < v then f u v
    done
  done

let edges t =
  let acc = ref [] in
  iter_edges t (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let degree_of_set t s =
  Cobra_bitset.Bitset.fold (fun u acc -> acc + unsafe_degree t u) s 0

let total_degree t = 2 * t.m

(* The blocked matvec, the CG hitting-time solver and the .cgr writer
   stream the raw CSR arrays without per-edge closure calls.  The
   arrays are the graph's own storage, shared, and must not be
   mutated. *)
let csr (t : t) : csr = { offsets = t.offsets; adj = t.adj }

let pp_stats ppf t =
  Format.fprintf ppf "n=%d m=%d deg=[%d..%d]%s" t.n t.m (min_degree t) (max_degree t)
    (if is_regular t then " regular" else "")
