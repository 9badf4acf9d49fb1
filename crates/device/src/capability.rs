//! The open device-model seam: [`StorageDevice`] plus optional
//! capabilities.
//!
//! The paper's study hardcodes two devices (a MEMS store and a 1.8-inch
//! disk); its *result* — buffer dimensioning trades energy saving against
//! device lifetime — is device-generic. This module is the seam that makes
//! the rest of the workspace generic too: a device is a [`StorageDevice`]
//! that *opts into* capabilities:
//!
//! * [`EnergyModelled`] — the refill-cycle power model of Eq. (1) can
//!   price it;
//! * [`WearModelled`] — it exposes wear channels (spring duty cycles,
//!   probe write budgets, flash erase budgets) the lifetime model folds
//!   into Eqs. (5)–(6) and their generalisations;
//! * [`SimBacked`] — the discrete-event simulator can replay it.
//!
//! Adding a device to the workspace is now: implement these traits in one
//! file and register the device on a grid. No enum surgery anywhere.

use std::fmt;

use memstream_units::{DataSize, Duration};

use crate::power::EnergyModelled;

/// How the analytic stack should model capacity utilisation `u(B)` for a
/// device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UtilizationSpec {
    /// `u(B)` follows the probe-striped sector format of §III-B: sync and
    /// ECC overheads amortise over buffer-sized sectors striped this wide.
    SectorFormat {
        /// The striping width `K` (simultaneously active probes).
        stripe_width: u32,
    },
    /// `u` is a buffer-independent constant — e.g. a flash part whose
    /// over-provisioning and translation-layer reserve are fixed at
    /// manufacture time.
    Constant {
        /// The fixed utilisation as a fraction in `(0, 1]`.
        fraction: f64,
    },
}

/// One wear mechanism of a device, in the units the lifetime model folds
/// into years.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WearChannel {
    /// A component rated for a fixed number of duty cycles, consumed one
    /// per refill (seek + shutdown) round trip: MEMS springs (Eq. (5)),
    /// disk head load/unload.
    DutyCycle {
        /// The duty-cycle rating `Dsp`.
        rating: f64,
    },
    /// A physical-write budget scaled by format utilisation: probe fatigue
    /// (Eq. (6)). `budget_bits = C · Dpb`; lifetime is
    /// `budget · u(B) / (w · T · rs)`.
    WriteBudget {
        /// The per-location write-cycle rating `Dpb` (for reporting).
        rating: f64,
        /// The total device write budget in bit-writes (`C · Dpb`).
        budget_bits: f64,
    },
    /// An erase-block program/erase budget with buffer-dependent write
    /// amplification: flash. Lifetime is
    /// `budget / (w · T · rs · waf(B))` with
    /// `waf(B) = waf_floor + block_bits / B` — small buffers force partial
    /// block programs and extra copy-back traffic, large buffers approach
    /// the floor.
    EraseBudget {
        /// Total bit-writes before the P/E budget is exhausted
        /// (`C · pe_cycles`).
        budget_bits: f64,
        /// Size of one erase block in bits.
        block_bits: f64,
        /// The write-amplification asymptote for large, aligned writes
        /// (≥ 1).
        waf_floor: f64,
    },
}

/// Capability: the device wears out in a way the lifetime model can fold
/// into years as a function of buffer size.
pub trait WearModelled: fmt::Debug {
    /// The device's wear channels, most binding first by convention. The
    /// lifetime model takes the minimum across channels.
    fn wear_channels(&self) -> Vec<WearChannel>;
}

/// What the simulator should account wear into — the data half of the
/// wear-sink seam (`memstream_sim` owns the accounting types; this spec
/// tells it which one to build).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WearSpec {
    /// Spring duty cycles + probe write budget (MEMS).
    ProbeFatigue {
        /// Striped probes sharing every write.
        active_probes: u32,
        /// Spring duty-cycle rating `Dsp`.
        spring_rating: f64,
        /// Total probe write budget in bit-writes (`C · Dpb`).
        probe_budget_bits: f64,
    },
    /// Erase blocks with a P/E-cycle budget and greedy wear-leveling
    /// (flash). The simulator inflates physical writes by the same
    /// `waf(B) = waf_floor + block_bits / B` the analytic
    /// [`WearChannel::EraseBudget`] charges, keeping the two wear models
    /// consistent.
    EraseBlocks {
        /// Number of erase blocks tracked by the leveler.
        blocks: u32,
        /// Size of one erase block in bits.
        block_bits: f64,
        /// Program/erase cycle rating per block.
        pe_cycles: f64,
        /// The write-amplification asymptote for large aligned writes.
        waf_floor: f64,
    },
}

/// Capability: the discrete-event simulator can replay this device.
pub trait SimBacked: EnergyModelled {
    /// Per-access I/O overhead charged to best-effort requests.
    fn io_overhead_time(&self) -> Duration;

    /// Striping width used to derive the simulated sector format.
    fn stripe_width(&self) -> u32;

    /// The wear sink the simulator should account into.
    fn wear_spec(&self) -> WearSpec;

    /// Boxed clone, so simulation configs can own heterogeneous devices.
    fn clone_sim(&self) -> Box<dyn SimBacked>;
}

impl Clone for Box<dyn SimBacked> {
    fn clone(&self) -> Self {
        self.clone_sim()
    }
}

impl<T: EnergyModelled + ?Sized> EnergyModelled for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn media_rate(&self) -> memstream_units::BitRate {
        (**self).media_rate()
    }
    fn power(&self, state: crate::PowerState) -> memstream_units::Power {
        (**self).power(state)
    }
    fn seek_time(&self) -> Duration {
        (**self).seek_time()
    }
    fn shutdown_time(&self) -> Duration {
        (**self).shutdown_time()
    }
}

impl SimBacked for Box<dyn SimBacked> {
    fn io_overhead_time(&self) -> Duration {
        (**self).io_overhead_time()
    }
    fn stripe_width(&self) -> u32 {
        (**self).stripe_width()
    }
    fn wear_spec(&self) -> WearSpec {
        (**self).wear_spec()
    }
    fn clone_sim(&self) -> Box<dyn SimBacked> {
        (**self).clone_sim()
    }
}

/// The super-trait every registered device implements: identity plus
/// capability discovery. Object-safe, so registries hold
/// `Vec<Box<dyn StorageDevice>>`.
///
/// Capability accessors default to `None`: a freshly written device
/// participates in exactly the analyses it opts into, and every consumer
/// (grid evaluation, sim validation) accounts explicitly for the
/// capabilities a device lacks instead of silently skipping it.
pub trait StorageDevice: fmt::Debug + Send + Sync {
    /// Device-family tag used in dedup keys and capability matrices
    /// (`"mems"`, `"disk"`, `"flash"`, ...).
    fn kind(&self) -> &'static str;

    /// A canonical content key: two devices with equal tokens model the
    /// same physics regardless of display names.
    ///
    /// The registered devices write `kind:<name length>:<name>` followed
    /// by every model field in a fixed order, each as `,<value>` (floats
    /// in shortest round-trip form, integers as plain decimals; see
    /// `docs/CACHE_FORMAT.md` § "Keys"). No Rust field or type name
    /// appears, so renaming a field leaves every cached key valid.
    fn dedup_token(&self) -> String;

    /// Raw media capacity.
    fn capacity(&self) -> DataSize;

    /// The energy capability, if the refill-cycle model applies.
    fn energy(&self) -> Option<&dyn EnergyModelled> {
        None
    }

    /// The wear capability, if the device has modelled wear channels.
    fn wear(&self) -> Option<&dyn WearModelled> {
        None
    }

    /// The simulation capability, if the discrete-event simulator can
    /// replay the device.
    fn sim(&self) -> Option<&dyn SimBacked> {
        None
    }

    /// How utilisation should be modelled, if the device supports the
    /// capacity leg of the trade-off at all.
    fn utilization(&self) -> Option<UtilizationSpec> {
        None
    }

    /// A concrete-type handle for monomorphized fast paths: devices that
    /// want to opt in (the registered mems/disk/flash types do) return
    /// `Some(self)`, letting consumers downcast and skip `&dyn` capability
    /// dispatch. The default `None` keeps wrapper devices (e.g.
    /// [`EnergyOnly`]) on the generic path; answers must be *identical*
    /// either way — this is purely a dispatch shortcut.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Boxed clone, for registries.
    fn clone_box(&self) -> Box<dyn StorageDevice>;
}

impl Clone for Box<dyn StorageDevice> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Writes a canonical [`StorageDevice::dedup_token`]: the kind tag, the
/// byte-length-prefixed device name, then one `,<value>` per model field.
/// The length prefix keeps any name unambiguous, and every field kind
/// prints without a `,`, so equal tokens mean equal fields.
pub(crate) struct DedupToken(String);

impl DedupToken {
    pub(crate) fn new(kind: &str, name: &str) -> Self {
        DedupToken(format!("{kind}:{}:{name}", name.len()))
    }

    /// Appends a float in its shortest round-trip form (`{:?}`).
    pub(crate) fn float(mut self, value: f64) -> Self {
        use fmt::Write as _;
        let _ = write!(self.0, ",{value:?}");
        self
    }

    /// Appends an integer as a plain decimal.
    pub(crate) fn int(mut self, value: u32) -> Self {
        use fmt::Write as _;
        let _ = write!(self.0, ",{value}");
        self
    }

    pub(crate) fn finish(self) -> String {
        self.0
    }
}

/// Restricts a device to its energy capability, masking wear, utilisation
/// and sim backing.
///
/// This is the capability-algebra way to freeze a device into the role the
/// paper's §III-A.1 break-even comparison gives the 1.8″ disk: priced by
/// the refill-cycle model, nothing else. The wrapper's dedup token is
/// distinct from the inner device's — an energy-only view and the fully
/// modelled device evaluate differently, so they must never share a cached
/// outcome.
///
/// ```
/// use memstream_device::{DiskDevice, EnergyOnly, StorageDevice};
///
/// let full = DiskDevice::calibrated_1p8_inch();
/// let masked = EnergyOnly::new(full.clone());
/// assert!(full.wear().is_some());
/// assert!(masked.wear().is_none() && masked.energy().is_some());
/// assert_ne!(full.dedup_token(), masked.dedup_token());
/// ```
#[derive(Debug, Clone)]
pub struct EnergyOnly<D> {
    inner: D,
}

impl<D: StorageDevice> EnergyOnly<D> {
    /// Wraps `inner`, hiding every capability but energy.
    pub fn new(inner: D) -> Self {
        EnergyOnly { inner }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: StorageDevice + Clone + 'static> StorageDevice for EnergyOnly<D> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn dedup_token(&self) -> String {
        format!("energy-only:{}", self.inner.dedup_token())
    }

    fn capacity(&self) -> DataSize {
        self.inner.capacity()
    }

    fn energy(&self) -> Option<&dyn EnergyModelled> {
        self.inner.energy()
    }

    fn clone_box(&self) -> Box<dyn StorageDevice> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskDevice, FlashDevice, MemsDevice, ProbeArray};

    fn capability_row(d: &dyn StorageDevice) -> (bool, bool, bool, bool) {
        (
            d.energy().is_some(),
            d.wear().is_some(),
            d.sim().is_some(),
            d.utilization().is_some(),
        )
    }

    #[test]
    fn capability_matrix_matches_readme() {
        let mems = MemsDevice::table1();
        let disk = DiskDevice::calibrated_1p8_inch();
        let flash = FlashDevice::mobile_mlc();
        assert_eq!(capability_row(&mems), (true, true, true, true));
        // The disk is full-pipeline on the analytic side (start-stop wear
        // plus a fixed LBA-format utilisation) but not sim-backed.
        assert_eq!(capability_row(&disk), (true, true, false, true));
        assert_eq!(capability_row(&flash), (true, true, true, true));
        // The paper-era energy-only role survives behind the mask.
        assert_eq!(
            capability_row(&EnergyOnly::new(disk)),
            (true, false, false, false)
        );
    }

    #[test]
    fn dedup_tokens_are_kind_prefixed_and_content_keyed() {
        let a = MemsDevice::table1();
        let b = MemsDevice::table1().with_probe_write_cycles(200.0);
        assert!(a.dedup_token().starts_with("mems:"));
        assert_ne!(a.dedup_token(), b.dedup_token());
        assert_eq!(a.dedup_token(), MemsDevice::table1().dedup_token());
        assert!(DiskDevice::calibrated_1p8_inch()
            .dedup_token()
            .starts_with("disk:"));
        assert!(FlashDevice::mobile_mlc()
            .dedup_token()
            .starts_with("flash:"));
    }

    const MEMS_TOKEN: &str = "mems:34:IBM-prototype MEMS store (Table I),\
        64,64,1024,100.0,960000000000.0,100000.0,0.002,0.001,0.002,\
        0.316,0.672,0.005,0.12,0.672,100.0,100000000.0";
    const DISK_TOKEN: &str = "disk:30:calibrated 1.8-inch disk drive,\
        640000000000.0,100000000.0,2.5,1.0,2.2,0.8,1.4,0.4,0.1,100000.0,0.95";
    const FLASH_TOKEN: &str = "flash:29:mobile MLC flash (2011 class),\
        512000000000.0,160000000.0,0.0005,0.0003,0.0005,0.06,0.24,0.08,0.0001,\
        4194304.0,3000.0,1.1,0.93";

    #[test]
    fn stock_devices_have_golden_canonical_tokens() {
        assert_eq!(MemsDevice::table1().dedup_token(), MEMS_TOKEN);
        assert_eq!(DiskDevice::calibrated_1p8_inch().dedup_token(), DISK_TOKEN);
        assert_eq!(FlashDevice::mobile_mlc().dedup_token(), FLASH_TOKEN);
        assert_eq!(
            EnergyOnly::new(DiskDevice::calibrated_1p8_inch()).dedup_token(),
            format!("energy-only:{DISK_TOKEN}")
        );
    }

    #[test]
    fn tokens_carry_no_rust_field_or_type_names() {
        let tokens = [
            MemsDevice::table1().dedup_token(),
            DiskDevice::calibrated_1p8_inch().dedup_token(),
            FlashDevice::mobile_mlc().dedup_token(),
            EnergyOnly::new(MemsDevice::table1()).dedup_token(),
        ];
        let names = [
            "MemsDevice",
            "DiskDevice",
            "FlashDevice",
            "EnergyOnly",
            "ProbeArray",
            "DataSize",
            "BitRate",
            "Duration",
            "Power",
            "bits",
            "seconds",
            "watts",
        ];
        for token in &tokens {
            assert!(!token.contains('{') && !token.contains(": "), "{token}");
            for name in names {
                assert!(!token.contains(name), "`{name}` in {token}");
            }
        }
    }

    /// Every token differs from the stock one and from each other.
    fn assert_all_distinct(stock: &str, variants: &[(&str, String)]) {
        let mut seen = std::collections::HashSet::from([stock.to_owned()]);
        for (field, token) in variants {
            assert!(
                seen.insert(token.clone()),
                "changing `{field}` kept a token"
            );
        }
    }

    #[test]
    fn changing_any_mems_field_changes_the_token() {
        use memstream_units::{BitRate, DataSize, Duration, Power};
        let token = |b: crate::MemsDeviceBuilder| b.build().expect("valid").dedup_token();
        let b = MemsDevice::builder;
        let array = |rows, cols, active, side| ProbeArray::new(rows, cols, active, side).unwrap();
        let variants = [
            ("name", token(b().name("other"))),
            ("rows", token(b().array(array(65, 64, 1024, 100.0)))),
            ("cols", token(b().array(array(64, 65, 1024, 100.0)))),
            ("active", token(b().array(array(64, 64, 1023, 100.0)))),
            ("field side", token(b().array(array(64, 64, 1024, 101.0)))),
            (
                "capacity",
                token(b().capacity(DataSize::from_gigabytes(121.0))),
            ),
            (
                "probe rate",
                token(b().per_probe_rate(BitRate::from_kbps(101.0))),
            ),
            (
                "seek time",
                token(b().seek_time(Duration::from_millis(2.5))),
            ),
            (
                "shutdown time",
                token(b().shutdown_time(Duration::from_millis(1.5))),
            ),
            (
                "io overhead",
                token(b().io_overhead_time(Duration::from_millis(2.5))),
            ),
            (
                "rw power",
                token(b().read_write_power(Power::from_milliwatts(317.0))),
            ),
            (
                "seek power",
                token(b().seek_power(Power::from_milliwatts(673.0))),
            ),
            (
                "standby power",
                token(b().standby_power(Power::from_milliwatts(4.0))),
            ),
            (
                "idle power",
                token(b().idle_power(Power::from_milliwatts(121.0))),
            ),
            (
                "shutdown power",
                token(b().shutdown_power(Power::from_milliwatts(673.0))),
            ),
            ("probe cycles", token(b().probe_write_cycles(101.0))),
            ("spring cycles", token(b().spring_duty_cycles(1.01e8))),
        ];
        assert_all_distinct(MEMS_TOKEN, &variants);
    }

    #[test]
    fn changing_any_disk_field_changes_the_token() {
        use memstream_units::{BitRate, DataSize, Duration, Power};
        let token = |b: crate::DiskDeviceBuilder| b.build().expect("valid").dedup_token();
        let b = DiskDevice::builder;
        let variants = [
            ("name", token(b().name("other"))),
            (
                "capacity",
                token(b().capacity(DataSize::from_gigabytes(81.0))),
            ),
            (
                "media rate",
                token(b().media_rate(BitRate::from_mbps(101.0))),
            ),
            (
                "spin-up time",
                token(b().spin_up_time(Duration::from_seconds(2.6))),
            ),
            (
                "spin-down time",
                token(b().spin_down_time(Duration::from_seconds(1.1))),
            ),
            (
                "spin-up power",
                token(b().spin_up_power(Power::from_watts(2.3))),
            ),
            (
                "spin-down power",
                token(b().spin_down_power(Power::from_watts(0.9))),
            ),
            (
                "rw power",
                token(b().read_write_power(Power::from_watts(1.5))),
            ),
            (
                "idle power",
                token(b().idle_power(Power::from_milliwatts(401.0))),
            ),
            (
                "standby power",
                token(b().standby_power(Power::from_milliwatts(99.0))),
            ),
            ("start-stop cycles", token(b().start_stop_cycles(1.01e5))),
            ("format utilisation", token(b().format_utilization(0.94))),
        ];
        assert_all_distinct(DISK_TOKEN, &variants);
    }

    #[test]
    fn changing_any_flash_field_changes_the_token() {
        use memstream_units::{BitRate, DataSize, Duration, Power};
        let token = |b: crate::FlashDeviceBuilder| b.build().expect("valid").dedup_token();
        let b = FlashDevice::builder;
        let variants = [
            ("name", token(b().name("other"))),
            (
                "capacity",
                token(b().capacity(DataSize::from_gigabytes(65.0))),
            ),
            (
                "media rate",
                token(b().media_rate(BitRate::from_mbps(161.0))),
            ),
            (
                "resume time",
                token(b().resume_time(Duration::from_millis(0.6))),
            ),
            (
                "power-down time",
                token(b().power_down_time(Duration::from_millis(0.4))),
            ),
            (
                "io overhead",
                token(b().io_overhead_time(Duration::from_millis(0.6))),
            ),
            (
                "transition power",
                token(b().transition_power(Power::from_milliwatts(61.0))),
            ),
            (
                "rw power",
                token(b().read_write_power(Power::from_milliwatts(241.0))),
            ),
            (
                "idle power",
                token(b().idle_power(Power::from_milliwatts(81.0))),
            ),
            (
                "deep power-down",
                token(b().deep_power_down(Power::from_milliwatts(0.2))),
            ),
            (
                "erase block",
                token(b().erase_block(DataSize::from_kibibytes(256.0))),
            ),
            ("P/E cycles", token(b().pe_cycles(3001.0))),
            ("WAF floor", token(b().waf_floor(1.2))),
            ("utilisation", token(b().fixed_utilization(0.92))),
        ];
        assert_all_distinct(FLASH_TOKEN, &variants);
    }

    #[test]
    fn the_name_length_prefix_keeps_names_unambiguous() {
        // Without the prefix, a name ending in `,64` would read as one
        // more field.
        let a = MemsDevice::builder().name("a,64").build().unwrap();
        let b = MemsDevice::builder().name("a").build().unwrap();
        assert!(a.dedup_token().starts_with("mems:4:a,64,"));
        assert!(b.dedup_token().starts_with("mems:1:a,"));
        assert_ne!(a.dedup_token(), b.dedup_token());
    }

    #[test]
    fn boxed_registry_round_trips_capabilities() {
        let devices: Vec<Box<dyn StorageDevice>> = vec![
            Box::new(MemsDevice::table1()),
            Box::new(DiskDevice::calibrated_1p8_inch()),
            Box::new(FlashDevice::mobile_mlc()),
        ];
        let cloned = devices.clone();
        for (a, b) in devices.iter().zip(&cloned) {
            assert_eq!(a.dedup_token(), b.dedup_token());
            assert_eq!(a.kind(), b.kind());
        }
        // The disk carries analytic wear but no sim backing; the others
        // carry every capability.
        assert!(cloned[1].wear().is_some());
        assert!(cloned[1].sim().is_none());
        assert!(cloned[0].sim().is_some());
        assert!(cloned[2].sim().is_some());
    }

    #[test]
    fn mems_wear_channels_mirror_the_ratings() {
        let d = MemsDevice::table1();
        let channels = d.wear_channels();
        assert_eq!(channels.len(), 2);
        match channels[0] {
            WearChannel::DutyCycle { rating } => assert_eq!(rating, 1e8),
            ref other => panic!("expected duty-cycle channel, got {other:?}"),
        }
        match channels[1] {
            WearChannel::WriteBudget {
                rating,
                budget_bits,
            } => {
                assert_eq!(rating, 100.0);
                assert_eq!(budget_bits, d.capacity().bits() * 100.0);
            }
            ref other => panic!("expected write-budget channel, got {other:?}"),
        }
    }
}
