type t = Fifo | Satf | Priority

let name = function Fifo -> "fifo" | Satf -> "satf" | Priority -> "priority"

let of_string s =
  match String.lowercase_ascii s with
  | "fifo" -> Ok Fifo
  | "satf" -> Ok Satf
  | "priority" -> Ok Priority
  | _ -> Error (Printf.sprintf "unknown I/O scheduler %S; valid: fifo, satf, priority" s)

let all = [ Fifo; Satf; Priority ]

(* A later index wins only by beating every earlier one, so ties stay
   FIFO.  A scan stops once no later request can win: no rank is below
   a demand fault's, and no service starts before [at]. *)
let pick t ~geometry ~at ~head queue ~first ~last =
  match t with
  | Fifo -> first
  | Priority ->
    let best = ref first and best_rank = ref (Request.rank queue.(first).Request.kind) in
    let i = ref (first + 1) in
    while !best_rank > 0 && !i < last && queue.(!i).Request.arrival_us <= at do
      let rank = Request.rank queue.(!i).Request.kind in
      if rank < !best_rank then begin
        best := !i;
        best_rank := rank
      end;
      incr i
    done;
    !best
  | Satf ->
    let best = ref first
    and best_start = ref (Geometry.start_us geometry ~at ~head ~page:queue.(first).Request.page) in
    let i = ref (first + 1) in
    while !best_start > at && !i < last && queue.(!i).Request.arrival_us <= at do
      let start = Geometry.start_us geometry ~at ~head ~page:queue.(!i).Request.page in
      if start < !best_start then begin
        best := !i;
        best_start := start
      end;
      incr i
    done;
    !best
