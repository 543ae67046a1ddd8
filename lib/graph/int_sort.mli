(** In-place range sort for CSR slice sorting.

    Orders the half-open range [\[lo, hi)] of an int32 bigarray
    ascending, allocating nothing: introsort (median-of-three quicksort,
    insertion sort on short ranges, heapsort past the depth budget), so
    the worst case stays O(n log n).  A sorted integer sequence is
    unique, so results are byte-identical to any other sort of the same
    slice. *)

type int32_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The packed CSR storage type: a C-layout bigarray of int32. *)

val sort_int32_range : int32_array -> lo:int -> hi:int -> unit
(** [sort_int32_range a ~lo ~hi] sorts [a.{lo} .. a.{hi - 1}] in place.
    @raise Invalid_argument if the range is not within [a]. *)
