(** The instruction TLB, extended with the way-placement bit
    (paper Section 4.1).

    A fully-associative TLB (32 entries on the XScale) holds one entry
    per page; each entry carries a single extra bit — the
    way-placement bit — set by the operating system when it writes the
    entry, indicating that the page lies inside the way-placement
    area.  The TLB is read in parallel with the instruction cache, so
    the bit is only known {e after} the access; the {!Way_hint} bit
    predicts it beforehand.

    A translation checks the most recently hit entry, then a host-side
    memo from page number to entry index (four slots per entry, rounded
    up to a power of two), and only then scans every entry.  A memo
    answer counts only if that entry holds the page; pages are unique
    among entries, so a verified hint is exactly the entry the scan
    would find, and stale slots left by eviction or {!flush} are
    harmless.  The memo is not machine state: it never changes a lookup
    result and {!fingerprint} excludes it. *)

type t

type lookup = {
  hit : bool;  (** false means a hardware page walk was needed *)
  way_placed : bool;  (** the entry's way-placement bit *)
}

val create : entries:int -> page_bytes:int -> t
(** @raise Invalid_argument unless [entries > 0] and [page_bytes] is a
    power of two. *)

val entries : t -> int
val page_bytes : t -> int

val lookup : t -> Wp_isa.Addr.t -> wp_bit_of_page:(Wp_isa.Addr.t -> bool) -> lookup
(** Translate the address's page.  On a miss the entry is filled
    (round-robin victim) and the OS-provided [wp_bit_of_page] is
    evaluated on the page base address to set the way-placement bit —
    this is the "stored with existing page permission bits and set by
    the operating system" behaviour of Section 4.1. *)

val lookup_bits :
  t -> Wp_isa.Addr.t -> wp_bit_of_page:(Wp_isa.Addr.t -> bool) -> int
(** Allocation-free twin of {!lookup} for the per-fetch simulator path:
    identical TLB-state effects, result encoded as an int — bit 0 is
    [hit], bit 1 is [way_placed]. *)

val page_base : t -> Wp_isa.Addr.t -> Wp_isa.Addr.t
val flush : t -> unit
(** Required when the OS resizes the way-placement area, so stale
    way-placement bits cannot linger. *)

val valid_entries : t -> int
val pp : Format.formatter -> t -> unit

val fingerprint : t -> add:(int -> unit) -> unit
(** Canonical state fingerprint (valid entries' pages and
    way-placement bits, round-robin cursor, most recently hit entry)
    for the steady-state fast-forward detector.  The residence memo is
    excluded: it never changes a result. *)
