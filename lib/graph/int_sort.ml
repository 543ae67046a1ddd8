(* In-place range sort for the CSR slice-sorting pass.

   [Graph.unsafe_of_edge_keys] (behind [Graph.of_edge_array] and
   [Builder.finish]) needs "sort adjacency entries [lo, hi) of this
   array" once per vertex.  [Array.sort] only sorts whole arrays, and
   copying each slice out to sort it allocates a temporary per vertex
   — millions of short-lived arrays on a power-law graph.  This sorter
   works directly on the range: introsort-style quicksort (median-of-three pivot, recursion on
   the smaller side, insertion sort below a threshold, heapsort fallback
   past the depth budget so adversarial inputs stay O(n log n)).

   Sorted integer sequences are unique regardless of algorithm, so
   swapping the sorter cannot change any CSR array — all pinned goldens
   are byte-identical by construction. *)

let insertion_threshold = 16

let depth_budget len =
  let d = ref 0 and n = ref len in
  while !n > 0 do
    incr d;
    n := !n lsr 1
  done;
  2 * !d

type int32_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let[@inline] swap (a : int32_array) i j =
  let t = Bigarray.Array1.unsafe_get a i in
  Bigarray.Array1.unsafe_set a i (Bigarray.Array1.unsafe_get a j);
  Bigarray.Array1.unsafe_set a j t

let insertion (a : int32_array) ~lo ~hi =
  for i = lo + 1 to hi - 1 do
    let x = Bigarray.Array1.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Bigarray.Array1.unsafe_get a !j > x do
      Bigarray.Array1.unsafe_set a (!j + 1) (Bigarray.Array1.unsafe_get a !j);
      decr j
    done;
    Bigarray.Array1.unsafe_set a (!j + 1) x
  done

let heapsort (a : int32_array) ~lo ~hi =
  let len = hi - lo in
  let sift root len =
    let root = ref root in
    let continue = ref true in
    while !continue do
      let child = (2 * !root) + 1 in
      if child >= len then continue := false
      else begin
        let child =
          if child + 1 < len
             && Bigarray.Array1.unsafe_get a (lo + child)
                < Bigarray.Array1.unsafe_get a (lo + child + 1)
          then child + 1
          else child
        in
        if Bigarray.Array1.unsafe_get a (lo + !root) < Bigarray.Array1.unsafe_get a (lo + child)
        then begin
          swap a (lo + !root) (lo + child);
          root := child
        end
        else continue := false
      end
    done
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for last = len - 1 downto 1 do
    swap a lo (lo + last);
    sift 0 last
  done

let rec quick (a : int32_array) ~lo ~hi depth =
  let lo = ref lo and hi = ref hi in
  while !hi - !lo > insertion_threshold do
    if depth = 0 then begin
      heapsort a ~lo:!lo ~hi:!hi;
      lo := !hi
    end
    else begin
      let mid = !lo + ((!hi - !lo) / 2) in
      if Bigarray.Array1.unsafe_get a mid < Bigarray.Array1.unsafe_get a !lo then swap a mid !lo;
      if Bigarray.Array1.unsafe_get a (!hi - 1) < Bigarray.Array1.unsafe_get a !lo then
        swap a (!hi - 1) !lo;
      if Bigarray.Array1.unsafe_get a mid < Bigarray.Array1.unsafe_get a (!hi - 1) then
        swap a mid (!hi - 1);
      let pivot = Bigarray.Array1.unsafe_get a (!hi - 1) in
      let i = ref !lo in
      for j = !lo to !hi - 2 do
        if Bigarray.Array1.unsafe_get a j <= pivot then begin
          swap a !i j;
          incr i
        end
      done;
      swap a !i (!hi - 1);
      if !i - !lo < !hi - !i - 1 then begin
        quick a ~lo:!lo ~hi:!i (depth - 1);
        lo := !i + 1
      end
      else begin
        quick a ~lo:(!i + 1) ~hi:!hi (depth - 1);
        hi := !i
      end
    end
  done;
  insertion a ~lo:!lo ~hi:!hi

let sort_int32_range (a : int32_array) ~lo ~hi =
  if lo < 0 || hi > Bigarray.Array1.dim a || lo > hi then
    invalid_arg "Int_sort.sort_int32_range";
  if hi - lo > 1 then quick a ~lo ~hi (depth_budget (hi - lo))
