(* What every workload provides to the benchmark's main loop. *)

(* One (input, policy, size) run: its id, its simulated statistics
   rendered canonically (two runs agree iff the strings are equal), and
   the host time each of its consecutive segments took. *)
type cell = { id : string; stats : string; segments_ns : int array }

type pass = {
  ops : int;  (** simulated operations completed *)
  cells : cell array;
  bad : string list;
      (** ids of cells that broke a seed-free invariant or raised; only
          filled in by a checking pass *)
  counters : (string * float) list;
      (** deterministic work counters of this pass, by per-layer metric name *)
}

type instance = {
  run : check:bool -> tracer:Span.t option -> width:int -> pass;
      (** One pass over every cell.  [check] adds the seed-free
          invariant checks; [tracer] wraps each call into a layer in a
          span (with [None], nothing is wrapped); [width] is the number
          of domains a sharded engine may use. *)
  gen_ns : int;  (** host time the set-up spent generating inputs *)
}

type t = {
  name : string;
  setup : seed:int -> instance;
      (** Generate the inputs from the seed and build the engines. *)
}

(* Run one cell: [f lap] returns its statistics and whether its checks
   held.  Each call of [lap] ends a timed segment; a cell that makes the
   same sequence of calls every pass can then be timed segment by
   segment.  A cell whose run raised is bad, and keeps a recognisable
   stats string so it also fails the digest. *)
let guard ~tracer ~id f =
  let depth = match tracer with Some t -> Span.depth t | None -> 0 in
  let laps = ref [] and last = ref (Span.now_ns ()) in
  let lap () =
    let now = Span.now_ns () in
    laps := (now - !last) :: !laps;
    last := now
  in
  let stats, ok =
    try f lap
    with e ->
      (match tracer with Some t -> Span.unwind_to t depth | None -> ());
      ("raised " ^ Printexc.to_string e, false)
  in
  lap ();
  ({ id; stats; segments_ns = Array.of_list (List.rev !laps) }, ok)

(* Ids of the cells whose check failed. *)
let failed cells =
  Array.to_list cells |> List.filter_map (fun (c, ok) -> if ok then None else Some c.id)

(* Time [f ()] in host nanoseconds. *)
let timed f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, Span.now_ns () - t0)

(* Run [f] inside span [name] when tracing. *)
let within tracer name f =
  match tracer with
  | None -> f ()
  | Some t ->
    Span.enter t (Span.node t name);
    let v = f () in
    Span.leave t;
    v

(* A replacement policy whose callbacks each run in a span: references
   in [replacement.on_reference], loads and evictions in
   [replacement.update], victim choice in [victim].  [candidate_words]
   accumulates the length of every candidate array offered. *)
let traced_policy t ~victim ~candidate_words (p : Paging.Replacement.t) =
  let on_ref = Span.node t "replacement.on_reference" in
  let update = Span.node t "replacement.update" in
  let choose = Span.node t victim in
  {
    p with
    Paging.Replacement.on_reference =
      (fun ~page ~write ->
        Span.enter t on_ref;
        p.on_reference ~page ~write;
        Span.leave t);
    on_load =
      (fun ~page ->
        Span.enter t update;
        p.on_load ~page;
        Span.leave t);
    on_evict =
      (fun ~page ->
        Span.enter t update;
        p.on_evict ~page;
        Span.leave t);
    choose_victim =
      (fun ~candidates ->
        candidate_words := !candidate_words + Array.length candidates;
        Span.enter t choose;
        let v = p.choose_victim ~candidates in
        Span.leave t;
        v);
  }

(* A metric-name-safe spelling of a policy name: lower case, only
   letters, digits and '-'. *)
let slug s =
  String.concat ""
    (List.filter_map
       (fun c ->
         match c with
         | 'A' .. 'Z' -> Some (String.make 1 (Char.lowercase_ascii c))
         | 'a' .. 'z' | '0' .. '9' | '-' -> Some (String.make 1 c)
         | _ -> None)
       (List.init (String.length s) (String.get s)))

(* A byte buffer whose contents are digested in place, so a large trace
   is never copied just to be checked. *)
type out = { mutable bytes : Bytes.t; mutable len : int }

let out_create n = { bytes = Bytes.create n; len = 0 }

let out_clear o = o.len <- 0

let out_line o s =
  let n = String.length s + 1 in
  if o.len + n > Bytes.length o.bytes then begin
    let grown = Bytes.create (max (o.len + n) (2 * Bytes.length o.bytes)) in
    Bytes.blit o.bytes 0 grown 0 o.len;
    o.bytes <- grown
  end;
  Bytes.blit_string s 0 o.bytes o.len (n - 1);
  Bytes.set o.bytes (o.len + n - 1) '\n';
  o.len <- o.len + n

let out_digest o = Digest.to_hex (Digest.subbytes o.bytes 0 o.len)

(* Seeds for the independent input streams of one workload, all drawn
   from the command-line seed. *)
let streams ~seed n =
  let rng = Sim.Rng.create seed in
  Array.init n (fun _ -> Sim.Rng.split rng)
