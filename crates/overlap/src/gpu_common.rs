//! Shared plumbing for the GPU implementations: device-resident fields in
//! the same layout as host [`Field3`]s, and ring transfers (pack → PCIe →
//! unpack) between device state and a host mirror.

use advect_core::field::{Field3, Range3};
use simgpu::{FieldDims, Gpu, GpuBuffer, StencilLaunch, Stream};

/// The first `len` values of a staging buffer, grown on demand.
fn first_n(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// A device-resident field pair (current and new state) in host layout.
pub struct DeviceField {
    /// Field layout (interior + halo) shared by both buffers.
    pub dims: FieldDims,
    /// Current-state buffer.
    pub cur: GpuBuffer,
    /// New-state buffer (swapped with `cur` each step — the paper flips
    /// kernel arguments "to avoid the need for an extra copy operation").
    pub new: GpuBuffer,
    /// Linear staging buffer for pack/unpack + PCIe transfers.
    pub staging: GpuBuffer,
    /// Host end of the PCIe transfers: one buffer, grown to the largest
    /// ring region and reused for every transfer of every step.
    host_staging: Vec<f64>,
}

impl DeviceField {
    /// Allocate device state matching `host` and upload its current
    /// contents (untimed — initialization is excluded from measurements).
    pub fn from_host(gpu: &Gpu, host: &Field3) -> Self {
        let (nx, ny, nz) = host.interior();
        let dims = FieldDims {
            nx,
            ny,
            nz,
            halo: host.halo(),
        };
        let cur = gpu.alloc(dims.len());
        let new = gpu.alloc(dims.len());
        // Staging sized for the largest transfer we make: a full halo
        // shell (single allocation reused for every ring transfer).
        let shell = dims.len() - nx * ny * nz;
        let staging = gpu.alloc(shell.max(nx * ny).max(1) * 2);
        gpu.upload_untimed(cur, host.data());
        Self {
            dims,
            cur,
            new,
            staging,
            host_staging: Vec::new(),
        }
    }

    /// Swap current and new state (pointer flip).
    pub fn swap(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.new);
    }

    /// Launch the stencil kernel `cur → new` on `stream`, once per
    /// non-empty region.
    pub fn launch_stencil(
        &self,
        gpu: &Gpu,
        stream: Stream,
        block: (usize, usize),
        regions: &[Range3],
    ) {
        for &region in regions {
            if region.is_empty() {
                continue;
            }
            let launch = StencilLaunch {
                dims: self.dims,
                region,
                block,
                periodic: false,
            };
            gpu.launch_stencil(stream, self.cur, self.new, launch);
        }
    }

    /// Download a set of regions of a device buffer into the host mirror:
    /// pack kernel → device-to-host copy → host unpack.
    pub fn regions_d2h(
        &mut self,
        gpu: &Gpu,
        stream: Stream,
        src: GpuBuffer,
        regions: &[Range3],
        host: &mut Field3,
    ) {
        for &r in regions {
            if r.is_empty() {
                continue;
            }
            gpu.launch_pack(stream, src, self.dims, r, self.staging, 0);
            let buf = first_n(&mut self.host_staging, r.len());
            gpu.d2h(stream, self.staging, 0, buf);
            host.unpack(r, buf);
        }
    }

    /// Upload a set of regions of the host mirror into a device buffer:
    /// host pack → host-to-device copy → unpack kernel.
    pub fn regions_h2d(
        &mut self,
        gpu: &Gpu,
        stream: Stream,
        dst: GpuBuffer,
        regions: &[Range3],
        host: &Field3,
    ) {
        for &r in regions {
            if r.is_empty() {
                continue;
            }
            let buf = first_n(&mut self.host_staging, r.len());
            host.pack(r, buf);
            gpu.h2d(stream, buf, self.staging, 0);
            gpu.launch_unpack(stream, dst, self.dims, r, self.staging, 0);
        }
    }

    /// Download `region` of a device buffer into the host mirror, one
    /// x-row at a time straight out of device memory — device and host
    /// share one layout, so a row has the same flat range in both (final
    /// verification readback; untimed).
    pub fn region_to_host(&self, gpu: &Gpu, src: GpuBuffer, region: Range3, host: &mut Field3) {
        if region.is_empty() {
            return;
        }
        gpu.sync_device();
        gpu.read_untimed(src, |data| {
            for row in self.dims.rows(region) {
                host.data_mut()[row.clone()].copy_from_slice(&data[row]);
            }
        });
    }
}
