package obs

// This file centralises the HELP text for the standard metric families so
// every binary exposing them (vdmd, the benchmark, tests) registers identical
// descriptions, and so the help-lint test can assert the whole standard
// surface is documented — a family scraping out with the "(no description
// registered)" fallback is a bug, not a cosmetic gap.

// standardHelp documents the families the trace metrics sink and the
// UDP-transport/mailbox collectors emit.
var standardHelp = map[string]string{
	"vdm_events_total":          "Protocol trace events by type.",
	"vdm_join_cases_total":      "Join directionality decisions by paper case (I/II/III).",
	"vdm_join_duration_seconds": "Join/reconnect/refine procedure durations by purpose.",
	"vdm_join_steps":            "Nodes visited per completed join procedure.",
	"vdm_udp_ack_latency_ms":    "Control-frame ack round-trip latency.",
	"vdm_chunk_path_latency_ms": "One-way source-to-peer latency of trace-tagged chunks, " +
		"per receiving edge (node, upstream sender).",
	"vdm_chunk_path_jitter_ms": "Absolute latency delta between consecutive trace-tagged " +
		"chunks on one edge.",
	"vdm_chunk_hop_depth":            "Hop depth below the source at which trace-tagged chunks arrived.",
	"vdm_udp_retransmits_sent_total": "Control-frame retransmissions (transport counter).",
	"vdm_udp_dedupe_dropped_total":   "Duplicate control frames suppressed (transport counter).",
	"vdm_udp_acks_received_total":    "Control-frame acks received (transport counter).",
	"vdm_mailbox_highwater":          "Deepest mailbox backlog this peer has seen.",
	"vdm_transport_ctrl_msgs_total":  "Control messages moved by the transport.",
	"vdm_transport_data_chunks_total": "Data-plane messages (chunks, parity, acks, nacks) moved " +
		"by the transport.",
	"vdm_transport_data_drops_total":    "Best-effort data-plane messages dropped.",
	"vdm_transport_ctrl_drops_total":    "Control messages dropped.",
	"vdm_transport_undeliverable_total": "Messages to unknown or departed peers.",
	"vdm_transport_overhead_ratio":      "Control messages per data message.",
}

// dataplaneHelp documents the batched-I/O counters a UDP transport exports.
var dataplaneHelp = map[string]string{
	"vdm_dataplane_send_syscalls_total":      "Socket write syscalls (one sendmmsg moving N datagrams counts once).",
	"vdm_dataplane_recv_syscalls_total":      "Socket read syscalls (one recvmmsg moving N datagrams counts once).",
	"vdm_dataplane_sent_frames_total":        "Frames written to the socket (a datagram carries one or more).",
	"vdm_dataplane_recv_frames_total":        "Frames read from the socket (a datagram carries one or more).",
	"vdm_dataplane_sent_datagrams_total":     "Datagrams written to the socket.",
	"vdm_dataplane_recv_datagrams_total":     "Datagrams read from the socket.",
	"vdm_dataplane_flushes_total":            "Send-coalescer flushes.",
	"vdm_dataplane_flushed_frames_total":     "Data frames moved by coalescer flushes.",
	"vdm_dataplane_flush_wait_seconds_total": "Summed first-enqueue-to-flush latency.",
	"vdm_dataplane_queue_drops_total":        "Data frames queued for sending after the transport closed.",
	"vdm_dataplane_fanout_encodes_total":     "Single-encode fan-outs (encode once, retarget per child).",
	"vdm_dataplane_fanout_frames_total":      "Frames produced by single-encode fan-outs.",
	"vdm_dataplane_max_batch":                "Largest frame count one syscall has moved.",
}

// flowHelp documents the reliable data plane's counters.
var flowHelp = map[string]string{
	"vdm_flow_acks_sent_total":          "Cumulative acks sent to the parent (ack clock, receiver side).",
	"vdm_flow_acks_recv_total":          "Cumulative acks received from children (ack clock, sender side).",
	"vdm_flow_nacks_sent_total":         "NACKs sent (gap repair and stalled-uplink pulls).",
	"vdm_flow_nacks_recv_total":         "NACKs received from children or repair clients.",
	"vdm_flow_retransmits_served_total": "Chunks retransmitted from the local cache in answer to NACKs.",
	"vdm_flow_parity_sent_total":        "FEC parity frames forwarded downstream.",
	"vdm_flow_parity_recv_total":        "FEC parity frames received.",
	"vdm_flow_fec_repairs_total":        "Chunks recovered locally from FEC parity (no retransmit needed).",
	"vdm_flow_stall_pulls_total":        "Stalled-uplink pulls sent to the repair neighbor.",
	"vdm_flow_skipped_seqs_total":       "Sequences written off after NACK retries were exhausted.",
	"vdm_flow_pushbacks_sent_total":     "Congestion pushbacks sent to the parent.",
	"vdm_flow_pushbacks_recv_total":     "Congestion pushbacks received (child rate halved).",
	"vdm_flow_pace_drops_total":         "Chunks evicted oldest-first from per-child pacing queues.",
	"vdm_flow_window_stalls_total":      "Ack-clocked windows that stalled past the stall timeout (0.25 s) and failed open.",
}

func registerHelp(r *Registry, m map[string]string) {
	for name, text := range m {
		r.SetHelp(name, text)
	}
}

// RegisterStandardHelp registers HELP for the trace metrics sink's families
// and the UDP-transport/mailbox collector names.
func RegisterStandardHelp(r *Registry) { registerHelp(r, standardHelp) }

// RegisterDataplaneHelp registers HELP for the vdm_dataplane_* family.
func RegisterDataplaneHelp(r *Registry) { registerHelp(r, dataplaneHelp) }

// RegisterFlowHelp registers HELP for the vdm_flow_* family.
func RegisterFlowHelp(r *Registry) { registerHelp(r, flowHelp) }
