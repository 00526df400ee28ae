let system =
  {
    Dsas.System.name = "ATLAS";
    characteristics =
      {
        Namespace.Characteristics.name_space = Namespace.Name_space.Linear { bits = 24 };
        predictive = Namespace.Characteristics.No_predictions;
        artificial_contiguity = true;
        allocation_unit = Namespace.Characteristics.Uniform 512;
      };
    core_words = 16_384;
    core_device = Memstore.Device.core;
    backing_words = 98_304;
    backing_device = Memstore.Device.drum;
    mechanism =
      Dsas.System.Paged
        {
          page_size = 512;
          frames = 32;  (* 16,384 words of core / 512-word pages *)
          policy = Paging.Spec.Atlas;
          (* One page address register per frame: mapping always hits. *)
          tlb_capacity = 32;
        };
    compute_us_per_ref = 2;
  }

let notes =
  [
    "first demand-paging system; 512-word pages";
    "learning-program replacement (time since use vs previous idle period)";
    "paging used for storage management within one program; I/O overlapped";
  ]
