package fault

// Canonical named plans: the vocabulary of the exploration sweep's
// fault axis, the ecbench fault table and the docs. Fixed seeds make
// every run of a named plan reproducible bit for bit.
//
//	none   no injection (the empty plan)
//	flaky  transient data-beat errors with corruption, both directions
//	storm  wait-state storms plus stretched EEPROM/Flash busy windows
//	grind  errors and storms combined, the worst-case soak
var Names = []string{"none", "flaky", "storm", "grind"}

// Named returns the canonical plan with the given name.
func Named(name string) (Plan, bool) {
	switch name {
	case "none", "":
		return Plan{}, true
	case "flaky":
		return Plan{
			Seed:             0xC0FFEE,
			ReadErrPermille:  25,
			WriteErrPermille: 25,
			CorruptMask:      0xDEAD_BEEF,
		}, true
	case "storm":
		return Plan{
			Seed:         0x57_0121,
			WaitPermille: 200,
			MaxExtraWait: 8,
			BusyStretch:  1,
		}, true
	case "grind":
		return Plan{
			Seed:             0x6121_4D,
			ReadErrPermille:  40,
			WriteErrPermille: 40,
			WaitPermille:     150,
			MaxExtraWait:     6,
			CorruptMask:      0xA5A5_A5A5,
			BusyStretch:      1,
		}, true
	default:
		return Plan{}, false
	}
}
