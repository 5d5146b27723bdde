(** Trace exporters: JSON lines (round-trip) and Chrome [trace_event].

    The Chrome document loads directly in about://tracing or Perfetto:
    spans appear on a "VIM service" track (execute > interrupt > fault
    service > SWimu decode / SWdp copy / TLB update), instants on an
    "interface events" track. *)

exception Parse_error of string

val json_escape : string -> string
(** The body of a JSON string literal: quotes, backslashes and control
    characters escaped. *)

val to_jsonl : Trace.event list -> string
(** One flat JSON object per line, oldest first. *)

val of_jsonl : string -> Trace.event list
(** Inverse of {!to_jsonl}. Blank lines are skipped; malformed lines
    raise {!Parse_error}. *)

val event_to_json : Trace.event -> string
val event_of_json : string -> Trace.event

val to_chrome : Trace.event list -> string
(** A [{"traceEvents":[...]}] JSON document, events sorted by start time
    so nested spans render correctly. *)

val write_file : string -> string -> unit
(** [write_file path contents] — small convenience for the CLI and
    examples. *)
