package dataset

// SetChunkSize sets the size IngestCSV cuts its input into and returns a
// func restoring the previous one, so the external tests can make small
// inputs cross many chunk boundaries.
func SetChunkSize(n int) (restore func()) {
	old := chunkSize
	chunkSize = n
	return func() { chunkSize = old }
}

// ParseFloat exposes the ingest's float reader to the external tests.
var ParseFloat = parseFloat
