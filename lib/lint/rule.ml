type t = L1 | L2 | L3 | L4 | L5 | L6 | L7

let all = [ L1; L2; L3; L4; L5; L6; L7 ]

let id = function
  | L1 -> "L1"
  | L2 -> "L2"
  | L3 -> "L3"
  | L4 -> "L4"
  | L5 -> "L5"
  | L6 -> "L6"
  | L7 -> "L7"

let slug = function
  | L1 -> "nondeterminism"
  | L2 -> "unsafe-cast"
  | L3 -> "hashtbl-order"
  | L4 -> "partial-function"
  | L5 -> "float-equality"
  | L6 -> "ignored-result"
  | L7 -> "rng-order"

let summary = function
  | L1 ->
    "no nondeterminism sources in simulation code: Random.self_init, the \
     global Random state, Unix.gettimeofday, Unix.time or Sys.time.  Every \
     run must be a pure function of its config; thread a seeded Sim.Rng or \
     Random.State instead"
  | L2 -> "no Obj.magic: it defeats the type system that the goldens rely on"
  | L3 ->
    "no polymorphic Hashtbl.iter/Hashtbl.fold: iteration order is \
     hash-dependent and silently perturbs any output derived from it.  Sort \
     the keys first, or pragma-allow a fold that is provably \
     order-independent (commutative, or sorted afterwards)"
  | L4 ->
    "no bare failwith, List.hd or Option.get in library code: return a typed \
     result, match explicitly, or keep the partiality behind a boundary \
     module (bin/, lib/experiments).  Pragma-allow documented invariants"
  | L5 ->
    "no float equality (=, <>, ==, != on float operands): representation \
     noise makes exact comparison fragile; compare with a tolerance or \
     restructure"
  | L6 ->
    "no ignore of a function application in library code: the discarded \
     type is invisible, so a result carrying a typed failure vanishes \
     silently.  Discard with a type ascription (let (_ : t) = ... ) so the \
     reader sees what is dropped, or handle the result"
  | L7 ->
    "no two draws from rng in one list, tuple, record or function \
     application: OCaml leaves the evaluation order of their parts \
     unspecified, so which part gets which draw is up to the compiler.  \
     Bind the draws with let, in the intended order"

let of_string s =
  let s = String.trim s in
  List.find_opt (fun r -> id r = s || slug r = s) all
