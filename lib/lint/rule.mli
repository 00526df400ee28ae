(** The repo-specific source rules `dsas_lint` enforces. *)

type t =
  | L1  (** nondeterminism sources (global Random, wall clock) *)
  | L2  (** [Obj.magic] *)
  | L3  (** polymorphic [Hashtbl.iter]/[Hashtbl.fold] (iteration order) *)
  | L4  (** bare [failwith]/[List.hd]/[Option.get] outside boundary modules *)
  | L5  (** float equality comparison *)
  | L6  (** ignore of a function application (invisible discarded type) *)
  | L7  (** several [rng] draws in one expression (unspecified order) *)

val all : t list

val id : t -> string
(** ["L1"] .. ["L7"] — what pragmas name. *)

val slug : t -> string
(** Human-readable short name, e.g. ["hashtbl-order"]. *)

val summary : t -> string
(** What the rule enforces and how to satisfy it; shown by
    [dsas_lint --list-rules]. *)

val of_string : string -> t option
(** Accepts either the {!id} or the {!slug}. *)
