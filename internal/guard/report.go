package guard

// IncidentReport is the structured terminal record of an aborted
// campaign: which wave could not be made safe, the evidence, who got
// quarantined, and the fingerprint of the last-good state the fabric was
// rolled back to. It is not stored as such: an aborted campaign's terminal
// checkpoint records each of these facts once, and the report is built from
// it (Checkpoint.incident) — by the run that aborts and by every resume of
// that checkpoint alike. Its JSON is the /v1/execute response's incident.
type IncidentReport struct {
	// Campaign is the campaign name.
	Campaign string `json:"campaign"`
	// Wave and Attempt locate the abort decision.
	Wave    int `json:"wave"`
	Attempt int `json:"attempt"`
	// TimeNs is the virtual time of the abort decision.
	TimeNs int64 `json:"time_ns"`
	// LastGood is the fingerprint of the snapshot the fabric was rolled
	// back to.
	LastGood string `json:"last_good"`
	// Quarantined lists the offending devices, sorted.
	Quarantined []string `json:"quarantined,omitempty"`
	// Violations is the final attempt's envelope evidence.
	Violations []Violation `json:"violations,omitempty"`
	// Log is the full decision log up to and including the abort.
	Log string `json:"log"`
}

// incident is the incident report of an aborted campaign's terminal
// checkpoint; now is the virtual time of the last-good state it rolled back
// to, which is the time of the abort decision.
func (cp *Checkpoint) incident(now int64) *IncidentReport {
	return &IncidentReport{
		Campaign: cp.Campaign, Wave: cp.Wave, Attempt: cp.Attempt, TimeNs: now,
		LastGood: cp.FinalFP, Quarantined: cp.Quarantined, Violations: cp.Violations,
		Log: cp.Log,
	}
}
