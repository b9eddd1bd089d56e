(** Netlist deltas: typed engineering-change-order (ECO) edits.

    A delta is an ordered list of edits against an existing {!Netlist.t}:
    add/remove a component, add/remove a wire, or tighten a timing
    budget between two components.  Deltas reference components by
    {e name}, not id, because removal renumbers the dense id space.

    Everything here is total: parsing and application return structured
    errors instead of raising.  [apply] also returns the id remap needed
    to carry an incumbent assignment across the edit.  It reads the old
    netlist in place and records only what the delta edits, then builds
    the edited netlist once, through {!Netlist.Builder}, from the old
    wires plus the pairs the delta touches. *)

type op =
  | Add_component of { name : string; size : float }
  | Remove_component of { name : string }
      (** Removing a component also removes its incident wires and any
          timing budgets that mention it. *)
  | Add_wire of { u : string; v : string; weight : float }
      (** Adds [weight] to the pair's current weight, in op order. *)
  | Remove_wire of { u : string; v : string }
      (** Removes the whole merged wire between the pair; it must exist. *)
  | Retime of { src : string; dst : string; budget : float }
      (** Directed timing budget [src -> dst].  Tighten-only: when a
          budget already exists for the pair, the smaller one wins
          (the semantics of [Constraints.Builder.add]). *)

type t = op list

type error = {
  at : int;  (** 1-based op index (validation) or source line (parsing). *)
  what : string;  (** The offending op or raw line. *)
  reason : string;
}

val error_to_string : error -> string

val to_string : t -> string
(** One op per line, in the concrete syntax accepted by {!parse_string}. *)

val parse_string : string -> (t, error) result
(** Concrete syntax, one op per line, in the line grammar of {!Scan}
    (comments from ['#'] or [';'], tokens separated by spaces and tabs,
    CRLF accepted); a parse error's [at] is the line number and its
    [what] the line's text:
    {v
    add <name> <size>
    remove <name>
    wire <u> <v> [weight]        (weight defaults to 1)
    unwire <u> <v>
    retime <src> <dst> <budget>
    v} *)

type applied = {
  netlist : Netlist.t;  (** The edited netlist. *)
  new_of_old : int array;  (** old id -> new id, [-1] if removed. *)
  old_of_new : int array;  (** new id -> old id, [-1] if freshly added. *)
  retimes : (int * int * float) list;
      (** Surviving directed budgets [(src, dst, budget)] in new ids. *)
  dims_changed : bool;
      (** True iff any component was added or removed.  When false,
          every id keeps its number and the component count is
          unchanged. *)
}

val apply : Netlist.t -> t -> (applied, error) result
(** Validates and applies.  Rejects structurally impossible edit
    sequences: duplicate or unknown component names, self-loops,
    removing a wire that does not exist, non-positive
    sizes/weights/budgets, non-finite numbers.  A delta that edits no
    component and no wire (retimes only) returns the old netlist
    itself as [netlist]. *)
