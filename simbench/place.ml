(* place: steady-state allocation.  Two request mixes (small-skewed
   geometric, bimodal 16/2048), each a live stream of alloc and free
   requests replayed through Freelist.Allocator under every standard
   placement policy.  An operation is one alloc or free
   request. *)

let steps = 12_000

let target_live = 4_000

(* Requests per timed segment of a replay. *)
let segment = 1_000

(* Each mix with the words of its store: about three times the expected
   live payload (4,000 x 26 and 4,000 x 97.3 words), fixed so that the
   heap does not depend on the seed, and large enough that no request
   was refused on any seed tried; the digests pin the failure count on
   the committed seeds. *)
let mixes =
  [|
    ("geometric", Workload.Alloc_stream.Geometric { mean = 24.; min_size = 2 }, 320_000);
    ( "bimodal",
      Workload.Alloc_stream.Bimodal { small = 16; large = 2048; large_fraction = 0.04 },
      1_200_000 );
  |]

let mix_name (name, _, _) = name

let policies = Array.of_list Freelist.Policy.all_standard

let policy_name p =
  match p with
  | Freelist.Policy.Two_ends _ -> "two-ends"
  | p -> Freelist.Policy.to_string p

(* A request stream flattened for replay: request [i] allocates
   [size.(i)] words for object [obj.(i)], or frees it when
   [size.(i) = 0]. *)
type requests = { obj : int array; size : int array; objects : int }

let flatten events =
  let n = List.length events in
  let obj = Array.make n 0 and size = Array.make n 0 in
  let objects = ref 0 in
  List.iteri
    (fun i ev ->
      match ev with
      | Workload.Alloc_stream.Alloc { id; size = s } ->
        obj.(i) <- id;
        size.(i) <- s;
        objects := max !objects (id + 1)
      | Workload.Alloc_stream.Free { id } -> obj.(i) <- id)
    events;
  { obj; size; objects = !objects }

let setup ~seed =
  let streams = Work.streams ~seed (Array.length mixes) in
  let inputs, gen_ns =
    Work.timed (fun () ->
        Array.mapi
          (fun m (_, size, _) ->
            flatten (Workload.Alloc_stream.live_stream streams.(m) ~steps ~size ~target_live))
          mixes)
  in
  let stores =
    Array.map (fun (name, _, words) -> Memstore.Physical.create ~name ~words) mixes
  in
  let run ~check ~tracer ~width:_ =
    let nodes = ref 0. in
    let ops = ref 0 in
    let cells =
      Array.init
        (Array.length mixes * Array.length policies)
        (fun k ->
          let m = k / Array.length policies and policy = policies.(k mod Array.length policies) in
          let id = Printf.sprintf "place/%s/%s" (mix_name mixes.(m)) (policy_name policy) in
          let req = inputs.(m) and mem = stores.(m) in
          Work.guard ~tracer ~id (fun lap ->
              let len = Memstore.Physical.size mem in
              let a =
                Work.within tracer "freelist.build" (fun () ->
                    Freelist.Allocator.create mem ~base:0 ~len ~policy)
              in
              let addr = Array.make req.objects (-1) in
              (match tracer with
               | None ->
                 for i = 0 to Array.length req.obj - 1 do
                   let o = req.obj.(i) in
                   (if req.size.(i) > 0 then
                      match Freelist.Allocator.alloc a req.size.(i) with
                      | Some p -> addr.(o) <- p
                      | None -> ()
                    else if addr.(o) >= 0 then Freelist.Allocator.free a addr.(o));
                   if i mod segment = segment - 1 then lap ()
                 done
               | Some t ->
                 let alloc_node =
                   Span.node t ("freelist.alloc." ^ Work.slug (policy_name policy))
                 in
                 let free_node = Span.node t "freelist.free" in
                 for i = 0 to Array.length req.obj - 1 do
                   let o = req.obj.(i) in
                   if req.size.(i) > 0 then begin
                     Span.enter t alloc_node;
                     let r = Freelist.Allocator.alloc a req.size.(i) in
                     Span.leave t;
                     match r with Some p -> addr.(o) <- p | None -> ()
                   end
                   else if addr.(o) >= 0 then begin
                     Span.enter t free_node;
                     Freelist.Allocator.free a addr.(o);
                     Span.leave t
                   end
                 done);
              ops := !ops + Array.length req.obj;
              let search = Freelist.Allocator.search_stats a in
              nodes := !nodes +. Metrics.Stats.total search;
              let holes = Freelist.Allocator.free_block_sizes a in
              let valid =
                (not check)
                ||
                match Freelist.Allocator.validate a with
                | () -> true
                | exception Failure _ -> false
              in
              ( Printf.sprintf
                  "requests=%d failures=%d live_words=%d live_blocks=%d free_words=%d \
                   holes=%d largest=%d examined=%.0f"
                  (Array.length req.obj) (Freelist.Allocator.failures a)
                  (Freelist.Allocator.live_words a)
                  (Freelist.Allocator.live_blocks a)
                  (Freelist.Allocator.free_words a) (List.length holes)
                  (Freelist.Allocator.largest_free a) (Metrics.Stats.total search),
                valid )))
    in
    {
      Work.ops = !ops;
      cells = Array.map fst cells;
      bad = Work.failed cells;
      counters = [ ("freelist.nodes_examined", !nodes) ];
    }
  in
  { Work.run; gen_ns }

let workload = { Work.name = "place"; setup }
