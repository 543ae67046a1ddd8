type t = { mutable state : int64 }

(* The increment and the finaliser (two multiply-xorshift rounds, all
   arithmetic modulo 2^64) are defined in {!Keyed}, whose draws run them
   on every step; the seeding paths here are cold. *)
let gamma = Keyed.gamma
let mix = Keyed.mix

let create seed = { state = seed }

let next t =
  let s = t.state in
  t.state <- Int64.add s gamma;
  mix s

let seed_of_pair master i =
  (* Feed the trial index through two mix rounds offset by the master
     seed, so that nearby indices land far apart in seed space. *)
  mix (Int64.add master (mix (Int64.of_int i)))
