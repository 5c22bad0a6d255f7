package main

// pinnedDigests are the simulated-output digests at defaultSeed, one per
// workload, taken at the sizes the workloads declare. A simplicity or speed
// change must leave them unchanged; a change to the model itself, or to a
// workload, re-pins them and says so.
var pinnedDigests = map[string]string{
	"fleet-scale":    "380c1207154d222a0be05e2ee511d26b4fbee928b3f95c6ca7cb8ca402091a50",
	"chat-kv":        "8b270e153a1eea251b756a71ceff86c71162c3e49ca7c59644ba8d2bf986a065",
	"faults-elastic": "8a7d298fd0559153a0f845c26db485edc784267291711b89c0e36dc16d4dba46",
	"paper-grid":     "312cc176d9a02654fe2dacbc89d9e1ecfd4afff3785b611d8e0d31c3056aec16",
}
