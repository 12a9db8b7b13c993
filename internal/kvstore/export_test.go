package kvstore

// TableRow is one command-table row as the package's external tests see
// it.
type TableRow struct {
	Name    string
	MinArgs int // the length of the row's shortest call, its name included
	Keys    uint8
	Hooked  bool
}

// Key layouts, for the external tests.
const (
	KeysNone  = keysNone
	KeysFirst = keysFirst
	KeysAll   = keysAll
	KeysPairs = keysPairs
)

// TableRows lists the command table.
func TableRows() []TableRow {
	rows := make([]TableRow, len(commandList))
	for i, sp := range commandList {
		rows[i] = TableRow{Name: sp.name, MinArgs: max(sp.arity, -sp.arity), Keys: sp.keys, Hooked: sp.hooked}
	}
	return rows
}
