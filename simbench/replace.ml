(* replace: the shape of experiment C3.  Three locality structures x
   every replacement policy (OPT included) x eight frame counts, each
   cell a Paging.Fault_sim run with the null sink.  An operation is one
   reference. *)

let trace_length = 2_000

let frame_counts = [| 8; 16; 24; 32; 40; 48; 56; 64 |]

let specs = Array.of_list (Paging.Spec.all_practical @ [ Paging.Spec.Opt ])

let is_opt = function Paging.Spec.Opt -> true | _ -> false

let is_lru = function Paging.Spec.Lru -> true | _ -> false

(* The loop trace is fixed by its shape; the seed renames its pages so
   that every seed still gives different inputs. *)
let gen_traces streams =
  let loop =
    Workload.Trace.loop ~length:trace_length ~extent:64 ~working_set:40
  in
  let names = Array.init 64 Fun.id in
  Sim.Rng.shuffle streams.(0) names;
  [|
    ("loop40of64", Array.map (fun p -> names.(p)) loop);
    ( "phases",
      Workload.Trace.working_set_phases streams.(1) ~length:trace_length ~extent:128
        ~set_size:24 ~phase_length:(trace_length / 10) ~locality:0.9 );
    ("zipf1", Workload.Trace.zipf streams.(2) ~length:trace_length ~extent:128 ~skew:1.0);
  |]

let setup ~seed =
  let streams = Work.streams ~seed 4 in
  let traces, gen_ns = Work.timed (fun () -> gen_traces streams) in
  let policy_seed = Sim.Rng.int streams.(3) (1 lsl 30) in
  let nt = Array.length traces and ns = Array.length specs and nf = Array.length frame_counts in
  let run ~check ~tracer ~width:_ =
    let faults = Array.make (nt * ns * nf) (-1) in
    let candidate_words = ref 0 in
    let cells =
      Array.init (nt * ns * nf) (fun k ->
          let ti = k / (ns * nf) and si = k / nf mod ns and fi = k mod nf in
          let tname, trace = traces.(ti) in
          let spec = specs.(si) and frames = frame_counts.(fi) in
          let id =
            Printf.sprintf "replace/%s/%s/%d" tname (Paging.Spec.to_string spec) frames
          in
          let rng = Sim.Rng.create (policy_seed + k) in
          Work.guard ~tracer ~id (fun _ ->
                let r =
                  match tracer with
                  | None ->
                    let policy = Paging.Spec.instantiate spec ~rng ~trace:(Some trace) in
                    Paging.Fault_sim.run ~frames ~policy trace
                  | Some t ->
                    let policy =
                      Work.within tracer "replacement.build" (fun () ->
                          Paging.Spec.instantiate spec ~rng ~trace:(Some trace))
                    in
                    let victim =
                      "replacement.victim." ^ Work.slug (Paging.Spec.to_string spec)
                    in
                    let policy = Work.traced_policy t ~victim ~candidate_words policy in
                    Work.within tracer "fault_sim" (fun () ->
                        Paging.Fault_sim.run ~frames ~policy trace)
                in
                faults.(k) <- r.faults;
                ( Printf.sprintf "refs=%d faults=%d cold=%d evictions=%d" r.refs r.faults r.cold
                    r.evictions,
                  (* Every fault fills a free frame or evicts, and
                     frames fill only on first touches. *)
                  (not check)
                  || (r.faults = min frames r.cold + r.evictions && r.cold <= r.faults) )))
    in
    (* OPT is optimal at every (trace, frames); LRU and OPT are stack
       algorithms, so their faults never rise as frames grow. *)
    let at ti si fi = faults.((ti * ns + si) * nf + fi) in
    let cells =
      Array.mapi
        (fun k (c, ok) ->
          let ti = k / (ns * nf) and si = k / nf mod ns and fi = k mod nf in
          let f = faults.(k) in
          let beaten_by_opt =
            Array.exists Fun.id (Array.init ns (fun o -> is_opt specs.(o) && at ti o fi > f))
          in
          let rises =
            (is_opt specs.(si) || is_lru specs.(si)) && fi > 0 && f > at ti si (fi - 1)
          in
          (c, ok && ((not check) || not (f < 0 || beaten_by_opt || rises))))
        cells
    in
    {
      Work.ops = nt * ns * nf * trace_length;
      cells = Array.map fst cells;
      bad = Work.failed cells;
      counters = [ ("fault_sim.candidate_words", float_of_int !candidate_words) ];
    }
  in
  { Work.run; gen_ns }

let workload = { Work.name = "replace"; setup }
