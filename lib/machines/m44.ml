let page_size_variants = [ 256; 512; 1024; 2048; 4096 ]

let with_page_size page_size =
  assert (List.mem page_size page_size_variants);
  {
    Dsas.System.name = (if page_size = 1024 then "M44/44X" else Printf.sprintf "M44/44X(p=%d)" page_size);
    characteristics =
      {
        Namespace.Characteristics.name_space = Namespace.Name_space.Linear { bits = 21 };
        predictive = Namespace.Characteristics.Programmer_directives;
        artificial_contiguity = true;
        allocation_unit = Namespace.Characteristics.Uniform page_size;
      };
    core_words = 196_608;
    core_device = Memstore.Device.slow_core;
    backing_words = 1 lsl 20;  (* scaled from the 9M-word 1301 disk *)
    backing_device = Memstore.Device.disk;
    mechanism =
      Dsas.System.Paged
        {
          page_size;
          frames = 196_608 / page_size;
          policy = Paging.Spec.M44;
          tlb_capacity = 0;  (* mapping via a store, charged per access *)
        };
    compute_us_per_ref = 8;
  }

let system = with_page_size 1024

let notes =
  [
    "virtual machines: 2M-word name space over ~200K words of real core";
    "page size variable at system start-up";
    "predictive instructions: page-will-be-needed / page-not-needed";
    "random-among-candidates replacement (usage frequency + modified bit)";
  ]
