(* Incremental CSR construction by counting sort.

   [Graph.of_edge_array] needs the caller's tuple array (three words
   per edge for the tuple block plus one for the array slot) alongside
   the packed key array it builds.  The builder keeps one growable int
   array with each edge packed into a single word, so the peak while
   [finish] runs is ~2 words/edge: the packed buffer (1) plus the int32
   adjacency being scattered into (1), plus O(n) counters.  That is the
   difference between fitting a 10^9-edge graph in tens of GB and not
   fitting it at all.

   [finish] hands the buffer to [Graph.unsafe_of_edge_keys], the same
   counting sort [Graph.of_edge_array] runs, so the result is
   bit-identical to [Graph.of_edge_array] on the same multiset of
   edges. *)

(* Edges are packed as [(u lsl 31) lor v], so vertex ids must fit in 31
   bits.  2^31 vertices at 63-bit ints is far beyond what a single
   address space holds anyway. *)
let max_id = (1 lsl 31) - 1

type t = {
  mutable n : int;
  fixed_n : bool;
  mutable packed : int array;
  mutable count : int;
  mutable finished : bool;
}

let create ?n ?(edges_hint = 1024) () =
  let n, fixed_n =
    match n with
    | Some n ->
        if n < 0 then invalid_arg "Builder.create: negative n";
        if n - 1 > max_id then invalid_arg "Builder.create: vertex ids must be < 2^31";
        (n, true)
    | None -> (0, false)
  in
  { n; fixed_n; packed = Array.make (max 16 edges_hint) 0; count = 0; finished = false }

let vertex_count t = t.n
let edge_count t = t.count

let[@inline never] grow t =
  let bigger = Array.make (2 * Array.length t.packed) 0 in
  Array.blit t.packed 0 bigger 0 t.count;
  t.packed <- bigger

let add_edge t u v =
  if t.finished then invalid_arg "Builder.add_edge: builder already finished";
  if u = v then invalid_arg (Printf.sprintf "Builder.add_edge: self-loop at %d" u);
  if t.fixed_n then begin
    if u < 0 || u >= t.n || v < 0 || v >= t.n then
      invalid_arg
        (Printf.sprintf "Builder.add_edge: edge (%d, %d) out of range [0, %d)" u v t.n)
  end
  else begin
    if u < 0 || v < 0 then
      invalid_arg (Printf.sprintf "Builder.add_edge: negative endpoint in (%d, %d)" u v);
    if u > max_id || v > max_id then
      invalid_arg "Builder.add_edge: vertex ids must be < 2^31";
    let hi = 1 + if u > v then u else v in
    if hi > t.n then t.n <- hi
  end;
  if t.count = Array.length t.packed then grow t;
  Array.unsafe_set t.packed t.count ((u lsl 31) lor v);
  t.count <- t.count + 1

let finish t =
  if t.finished then invalid_arg "Builder.finish: builder already finished";
  t.finished <- true;
  let keys = t.packed in
  t.packed <- [||];
  Graph.unsafe_of_edge_keys ~n:t.n ~count:t.count keys

let of_edge_seq ?n seq =
  let b = create ?n () in
  Seq.iter (fun (u, v) -> add_edge b u v) seq;
  finish b
