(* Tests for the predictive library: directives, phased programs with
   advice, ACSI-MATIC program descriptions. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make_engine ?(frames = 8) ?(pages = 32) () =
  Paging.Spec.build ~clock:(Sim.Clock.create ()) ~rng:(Sim.Rng.create 0)
    { Paging.Spec.e_page_size = 64; e_frames = frames; e_pages = pages;
      e_device = Memstore.Device.drum; e_policy = Paging.Spec.Lru; e_tlb_slots = None;
      e_compute_us_per_ref = 10 }

let test_directives_map_to_engine () =
  let engine = make_engine () in
  Predictive.Directive.apply engine (Predictive.Directive.Will_need 3);
  check_int "prefetch issued" 1 (Paging.Demand.prefetches engine);
  Predictive.Directive.apply engine (Predictive.Directive.Keep_resident 4);
  check_bool "locked page resident" true (Paging.Demand.frame_of engine ~page:4 <> None);
  Predictive.Directive.apply engine (Predictive.Directive.Release_resident 4);
  Predictive.Directive.apply engine (Predictive.Directive.Wont_need 4);
  check_bool "released" true (Paging.Demand.frame_of engine ~page:4 = None)

let test_run_annotated_and_strip () =
  let open Predictive.Directive in
  let steps =
    [| Advice (Will_need 0); Reference 1; Reference 65; Advice (Wont_need 0); Reference 2 |]
  in
  Alcotest.(check (array int)) "strip keeps references" [| 1; 65; 2 |] (strip steps);
  let engine = make_engine () in
  run_annotated engine steps;
  check_int "three references executed" 3 (Paging.Demand.refs engine)

let test_phased_program_shape () =
  let rng = Sim.Rng.create 5 in
  let p =
    Predictive.Phased.generate rng ~page_size:64 ~phases:4 ~refs_per_phase:100
      ~pages_per_phase:4 ~total_pages:32 ~lead:20
  in
  check_int "four phase sets" 4 (Array.length p.Predictive.Phased.phases);
  let refs = Predictive.Directive.strip p.Predictive.Phased.steps in
  check_int "400 references" 400 (Array.length refs);
  (* Every reference must land inside its phase's page set. *)
  Array.iteri
    (fun phase set ->
      for r = 0 to 99 do
        let page = refs.((phase * 100) + r) / 64 in
        check_bool "reference in phase set" true (Array.mem page set)
      done)
    p.Predictive.Phased.phases;
  (* Advice precedes each later phase. *)
  let advice_count =
    Array.fold_left
      (fun n -> function Predictive.Directive.Advice _ -> n + 1 | _ -> n)
      0 p.Predictive.Phased.steps
  in
  check_bool "advice present" true (advice_count > 0)

let test_advice_reduces_faults_and_waiting () =
  let rng = Sim.Rng.create 11 in
  let p =
    Predictive.Phased.generate rng ~page_size:64 ~phases:6 ~refs_per_phase:200
      ~pages_per_phase:4 ~total_pages:32 ~lead:60
  in
  let advised = make_engine () in
  Predictive.Directive.run_annotated advised p.Predictive.Phased.steps;
  let blind = make_engine () in
  Paging.Demand.run blind (Predictive.Directive.strip p.Predictive.Phased.steps);
  check_bool "advice cuts demand faults" true
    (Paging.Demand.faults advised < Paging.Demand.faults blind);
  check_bool "advice cuts waiting space-time" true
    (Metrics.Space_time.waiting (Paging.Demand.space_time advised)
     < Metrics.Space_time.waiting (Paging.Demand.space_time blind))

let test_description_analysis () =
  let open Predictive.Description in
  let d =
    [
      { pages = [ 0; 1 ]; medium = Working_storage; overlayable = false };
      { pages = [ 2 ]; medium = Working_storage; overlayable = true };
      { pages = [ 3; 4 ]; medium = Backing_storage; overlayable = true };
    ]
  in
  let directives = analyse d in
  check_int "three directives" 3 (List.length directives);
  check_bool "pinned group" true
    (List.mem (Predictive.Directive.Keep_resident 0) directives
    && List.mem (Predictive.Directive.Keep_resident 1) directives);
  check_bool "prefetched group" true (List.mem (Predictive.Directive.Will_need 2) directives);
  check_bool "backing group silent" true
    (not (List.exists (function
       | Predictive.Directive.Will_need p | Predictive.Directive.Keep_resident p -> p >= 3
       | _ -> false) directives))

let test_description_revision () =
  let open Predictive.Description in
  let d = [ { pages = [ 0; 1 ]; medium = Working_storage; overlayable = false } ] in
  let d = revise d { pages = [ 0; 1 ]; medium = Backing_storage; overlayable = true } in
  check_int "replaced, not added" 1 (List.length d);
  check_int "revision took effect" 0 (List.length (analyse d));
  let d = revise d { pages = [ 5 ]; medium = Working_storage; overlayable = false } in
  check_int "new group appended" 2 (List.length d)

let () =
  Alcotest.run "predictive"
    [
      ( "directive",
        [
          Alcotest.test_case "maps to engine" `Quick test_directives_map_to_engine;
          Alcotest.test_case "run/strip" `Quick test_run_annotated_and_strip;
        ] );
      ( "phased",
        [
          Alcotest.test_case "shape" `Quick test_phased_program_shape;
          Alcotest.test_case "advice helps" `Quick test_advice_reduces_faults_and_waiting;
        ] );
      ( "description",
        [
          Alcotest.test_case "analysis" `Quick test_description_analysis;
          Alcotest.test_case "revision" `Quick test_description_revision;
        ] );
    ]
