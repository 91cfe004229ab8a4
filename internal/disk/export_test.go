package disk

// Capacity returns the drive size in bytes.
func (d *Drive) Capacity() int64 {
	c := d.cfg
	return int64(c.Cylinders) * int64(c.TracksPerCyl) * int64(c.SectorsPerTrk) * int64(c.SectorBytes)
}
