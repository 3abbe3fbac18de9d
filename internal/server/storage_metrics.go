package server

import (
	"repro/internal/colstore"
	"repro/internal/metrics"
)

// registerStorageMetrics wires the column-store residency gauges into the
// /metrics registry. They are computed on scrape (mincore + rusage are
// syscalls; no need to pay them on the query path): per-dataset raw
// column payload, mapped and resident bytes, the storage mode, how many
// columns each encoding serves (a column that fit no packed form shows
// under enc="raw"), the registry's segment lifecycle counters, and the
// process page-fault counts that show mmap-backed scans faulting pages in.
func registerStorageMetrics(reg *Registry, m *metrics.Registry) {
	m.OnScrape(func() {
		for _, st := range reg.StorageStats() {
			ds := metrics.L("dataset", st.Name)
			m.Gauge("apex_dataset_data_bytes",
				"raw column payload of the dataset (codes, values, bitmaps, dictionaries)", ds).Set(float64(st.DataBytes))
			m.Gauge("apex_dataset_mapped_bytes",
				"bytes of the dataset's column-store segment mapping (0 = heap-backed)", ds).Set(float64(st.MappedBytes))
			m.Gauge("apex_dataset_resident_bytes",
				"bytes of the dataset currently in physical memory (mincore for mmap, full payload for heap)", ds).Set(float64(st.ResidentBytes))
			m.Gauge("apex_dataset_storage_mode",
				"1 for the dataset's active storage mode", ds, metrics.L("mode", st.Mode.String())).Set(1)
			for _, enc := range colstore.Encodings {
				m.Gauge("apex_dataset_columns",
					"columns of the dataset served in each encoding; raw = full-width, no packed form fit", ds, metrics.L("enc", enc)).Set(float64(st.Columns[enc]))
			}
			if st.SegmentVersion > 0 {
				m.Gauge("apex_dataset_segment_version",
					"on-disk column-store format version of the dataset's segment", ds).Set(float64(st.SegmentVersion))
				m.Gauge("apex_dataset_segment_file_bytes",
					"on-disk size of the dataset's segment file", ds).Set(float64(st.FileBytes))
				m.Gauge("apex_dataset_segment_v1_bytes",
					"column payload the same dataset would occupy in the full-width v1 segment layout", ds).Set(float64(st.V1Bytes))
			}
		}
		c := reg.Counters()
		m.Gauge("apex_colstore_segment_opens",
			"successful column-store segment opens since process start").Set(float64(c.SegmentOpens))
		m.Gauge("apex_colstore_segment_open_failures",
			"segment opens rejected by validation (structure or checksum)").Set(float64(c.SegmentOpenFails))
		m.Gauge("apex_colstore_segments_quarantined",
			"corrupt segments renamed aside during recovery").Set(float64(c.SegmentQuarantines))
		m.Gauge("apex_colstore_csv_fallbacks",
			"dataset recoveries that re-parsed the source CSV instead of opening a segment").Set(float64(c.CSVFallbacks))

		minor, major := pageFaults()
		m.Gauge("process_page_faults",
			"process page faults since start (rusage)", metrics.L("kind", "minor")).Set(float64(minor))
		m.Gauge("process_page_faults",
			"process page faults since start (rusage)", metrics.L("kind", "major")).Set(float64(major))
	})
}
