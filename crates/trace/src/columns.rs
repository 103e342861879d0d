//! Struct-of-arrays ticket storage: the only form a trace's tickets take.
//!
//! [`FotColumns`] holds one typed array per ticket field: small dense ids
//! for the categorical fields (component class, failure type, category,
//! action), `u32`/`u16` ids for servers / data centers / product lines,
//! day+second-of-day pairs for the two timestamps, and dictionary-interned
//! detail strings. Analysis kernels stream over the handful of dense
//! columns they need (a few bytes per ticket), the binary snapshot format
//! ([`crate::io::snapshot`]) serializes the same blobs verbatim, and
//! [`FotColumns::fot`] decodes one row into a by-value [`Fot`] view for
//! code that reads whole tickets.
//!
//! Rows are in `(error_time, id)` order. Positions handed out by
//! [`crate::TraceIndex`] and [`crate::StreamIndex`] are row indices into
//! these columns. Columns are filled by a [`ColumnsBuilder`] (the engine's
//! ticket sink, [`crate::Trace::new`], the CSV reader) or decoded from a
//! snapshot, and [`crate::Trace`] validates them before it owns them.

use std::collections::HashMap;
use std::ops::Range;

use crate::fot::{Fot, FotCategory, OperatorAction, OperatorResponse};
use crate::{
    ComponentClass, DataCenterId, FailureType, FotId, OperatorId, ProductLineId, RackPosition,
    ServerId, SimTime, TraceError, SECS_PER_DAY,
};

/// Sentinel in the op-time day column: ticket has no operator response.
pub const NO_RESPONSE_DAY: u32 = u32::MAX;
/// Sentinel in the operator column: ticket has no operator response.
pub const NO_OPERATOR: u16 = u16::MAX;
/// Sentinel in the action column: ticket has no operator response.
pub const NO_ACTION: u8 = u8::MAX;

/// Struct-of-arrays ticket storage: one typed array per [`Fot`] field,
/// rows in `(error_time, id)` order.
///
/// Equality compares the columns and the dictionary. Every producer
/// interns details in first-appearance order, so two stores with equal
/// rows are equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FotColumns {
    pub(crate) id: Vec<u64>,
    pub(crate) server: Vec<u32>,
    pub(crate) data_center: Vec<u16>,
    pub(crate) product_line: Vec<u16>,
    pub(crate) class: Vec<u8>,
    pub(crate) device_slot: Vec<u8>,
    pub(crate) failure_type: Vec<u8>,
    pub(crate) error_day: Vec<u32>,
    pub(crate) error_sod: Vec<u32>,
    pub(crate) rack_position: Vec<u8>,
    pub(crate) category: Vec<u8>,
    pub(crate) op_day: Vec<u32>,
    pub(crate) op_sod: Vec<u32>,
    pub(crate) operator: Vec<u16>,
    pub(crate) action: Vec<u8>,
    pub(crate) detail: Vec<u32>,
    /// Detail strings, interned in first-appearance order.
    pub(crate) dict: Vec<String>,
}

/// Appends ticket rows to a [`FotColumns`], interning detail strings in
/// first-appearance order.
///
/// [`ColumnsBuilder::push`] interns each row's detail through a hash map.
/// A producer that knows its details come from a small fixed set (the
/// engine: one static string per failure type) interns each one once and
/// appends with [`ColumnsBuilder::push_interned`], so no row hashes or
/// copies a string.
#[derive(Debug, Default)]
pub struct ColumnsBuilder {
    cols: FotColumns,
    ids: HashMap<String, u32>,
}

impl ColumnsBuilder {
    /// An empty builder with room for `rows` tickets in every column.
    pub fn with_capacity(rows: usize) -> Self {
        let cols = FotColumns {
            id: Vec::with_capacity(rows),
            server: Vec::with_capacity(rows),
            data_center: Vec::with_capacity(rows),
            product_line: Vec::with_capacity(rows),
            class: Vec::with_capacity(rows),
            device_slot: Vec::with_capacity(rows),
            failure_type: Vec::with_capacity(rows),
            error_day: Vec::with_capacity(rows),
            error_sod: Vec::with_capacity(rows),
            rack_position: Vec::with_capacity(rows),
            category: Vec::with_capacity(rows),
            op_day: Vec::with_capacity(rows),
            op_sod: Vec::with_capacity(rows),
            operator: Vec::with_capacity(rows),
            action: Vec::with_capacity(rows),
            detail: Vec::with_capacity(rows),
            dict: Vec::new(),
        };
        Self {
            cols,
            ids: HashMap::new(),
        }
    }

    /// The dictionary id of `s`, interning it on first sight.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.cols.dict.len() as u32;
        self.cols.dict.push(s.to_owned());
        self.ids.insert(s.to_owned(), id);
        id
    }

    /// Appends `fot`, interning its detail.
    pub fn push(&mut self, fot: &Fot<'_>) {
        let detail = self.intern(fot.detail);
        self.push_interned(fot, detail);
    }

    /// Appends `fot` with `detail`, the id [`ColumnsBuilder::intern`]
    /// returned for `fot.detail`.
    pub fn push_interned(&mut self, fot: &Fot<'_>, detail: u32) {
        debug_assert_eq!(self.cols.dict[detail as usize], fot.detail);
        let c = &mut self.cols;
        c.id.push(fot.id.raw());
        c.server.push(fot.server.raw());
        c.data_center.push(fot.data_center.raw());
        c.product_line.push(fot.product_line.raw());
        c.class.push(fot.device.index() as u8);
        c.device_slot.push(fot.device_slot);
        c.failure_type.push(fot.failure_type.index() as u8);
        let secs = fot.error_time.as_secs();
        c.error_day.push((secs / SECS_PER_DAY) as u32);
        c.error_sod.push((secs % SECS_PER_DAY) as u32);
        c.rack_position.push(fot.rack_position.raw());
        c.category.push(category_tag(fot.category));
        match fot.response {
            Some(r) => {
                let op = r.op_time.as_secs();
                c.op_day.push((op / SECS_PER_DAY) as u32);
                c.op_sod.push((op % SECS_PER_DAY) as u32);
                c.operator.push(r.operator.raw());
                c.action.push(action_tag(r.action));
            }
            None => {
                c.op_day.push(NO_RESPONSE_DAY);
                c.op_sod.push(0);
                c.operator.push(NO_OPERATOR);
                c.action.push(NO_ACTION);
            }
        }
        c.detail.push(detail);
    }

    /// Appends `other`'s rows after this builder's, interning its details
    /// in its first-appearance order, so the result equals pushing
    /// `other`'s rows here one by one. A producer that fills consecutive
    /// stretches of rows on several threads builds each into its own
    /// builder and appends them in order.
    pub fn append(&mut self, other: FotColumns) {
        let remap: Vec<u32> = other.dict.iter().map(|d| self.intern(d)).collect();
        let c = &mut self.cols;
        c.id.extend_from_slice(&other.id);
        c.server.extend_from_slice(&other.server);
        c.data_center.extend_from_slice(&other.data_center);
        c.product_line.extend_from_slice(&other.product_line);
        c.class.extend_from_slice(&other.class);
        c.device_slot.extend_from_slice(&other.device_slot);
        c.failure_type.extend_from_slice(&other.failure_type);
        c.error_day.extend_from_slice(&other.error_day);
        c.error_sod.extend_from_slice(&other.error_sod);
        c.rack_position.extend_from_slice(&other.rack_position);
        c.category.extend_from_slice(&other.category);
        c.op_day.extend_from_slice(&other.op_day);
        c.op_sod.extend_from_slice(&other.op_sod);
        c.operator.extend_from_slice(&other.operator);
        c.action.extend_from_slice(&other.action);
        c.detail
            .extend(other.detail.iter().map(|&d| remap[d as usize]));
    }

    /// The filled columns.
    pub fn finish(self) -> FotColumns {
        self.cols
    }
}

impl FotColumns {
    /// Number of rows (tickets).
    #[inline]
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// Whether the store holds no tickets.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Raw ticket ids.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.id
    }

    /// Raw server ids.
    #[inline]
    pub fn servers(&self) -> &[u32] {
        &self.server
    }

    /// Raw data-center ids.
    #[inline]
    pub fn data_centers(&self) -> &[u16] {
        &self.data_center
    }

    /// Raw product-line ids.
    #[inline]
    pub fn product_lines(&self) -> &[u16] {
        &self.product_line
    }

    /// Dense component-class tags ([`crate::ComponentClass::ALL`] indices).
    #[inline]
    pub fn classes(&self) -> &[u8] {
        &self.class
    }

    /// Device slot numbers.
    #[inline]
    pub fn device_slots(&self) -> &[u8] {
        &self.device_slot
    }

    /// Dense failure-type tags ([`FailureType::ALL`] indices).
    #[inline]
    pub fn failure_types(&self) -> &[u8] {
        &self.failure_type
    }

    /// Error-time day indices (days since origin).
    #[inline]
    pub fn error_days(&self) -> &[u32] {
        &self.error_day
    }

    /// Error-time seconds within the day.
    #[inline]
    pub fn error_sods(&self) -> &[u32] {
        &self.error_sod
    }

    /// Rack positions.
    #[inline]
    pub fn rack_positions(&self) -> &[u8] {
        &self.rack_position
    }

    /// Dense category tags (see [`category_tag`]).
    #[inline]
    pub fn categories(&self) -> &[u8] {
        &self.category
    }

    /// Op-time day indices; [`NO_RESPONSE_DAY`] where there is no response.
    #[inline]
    pub fn op_days(&self) -> &[u32] {
        &self.op_day
    }

    /// Op-time seconds within the day (zero where there is no response).
    #[inline]
    pub fn op_sods(&self) -> &[u32] {
        &self.op_sod
    }

    /// Operator ids; [`NO_OPERATOR`] where there is no response.
    #[inline]
    pub fn operators(&self) -> &[u16] {
        &self.operator
    }

    /// Dense action tags; [`NO_ACTION`] where there is no response.
    #[inline]
    pub fn actions(&self) -> &[u8] {
        &self.action
    }

    /// Detail-string dictionary ids.
    #[inline]
    pub fn details(&self) -> &[u32] {
        &self.detail
    }

    /// The detail strings [`FotColumns::details`] index, in
    /// first-appearance order.
    pub fn dict(&self) -> &[String] {
        &self.dict
    }

    /// Error time of row `i`, seconds since origin.
    #[inline]
    pub fn error_secs(&self, i: usize) -> u64 {
        self.error_day[i] as u64 * SECS_PER_DAY + self.error_sod[i] as u64
    }

    /// Op time of row `i`, seconds since origin; `None` without a response.
    #[inline]
    pub fn op_secs(&self, i: usize) -> Option<u64> {
        if self.op_day[i] == NO_RESPONSE_DAY {
            None
        } else {
            Some(self.op_day[i] as u64 * SECS_PER_DAY + self.op_sod[i] as u64)
        }
    }

    /// Response time of row `i` in fractional days, matching
    /// [`Fot::response_time`] exactly (saturating at zero).
    #[inline]
    pub fn response_days(&self, i: usize) -> Option<f64> {
        self.op_secs(i)
            .map(|op| op.saturating_sub(self.error_secs(i)) as f64 / SECS_PER_DAY as f64)
    }

    /// Whether row `i` is a failure (not a false alarm).
    #[inline]
    pub fn is_failure(&self, i: usize) -> bool {
        self.category[i] != FALSE_ALARM_TAG
    }

    /// Detail string of row `i`.
    #[inline]
    pub fn detail_str(&self, i: usize) -> &str {
        &self.dict[self.detail[i] as usize]
    }

    /// Row `i` as a ticket view. Inlined, like the column and row
    /// accessors above, so that a loop in another crate reading a few
    /// fields of each row loads little more than those columns.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn fot(&self, i: usize) -> Fot<'_> {
        let response = self.op_secs(i).map(|op| OperatorResponse {
            operator: OperatorId::new(self.operator[i]),
            op_time: SimTime::from_secs(op),
            action: action_from_tag(self.action[i]).expect("validated action tag"),
        });
        Fot {
            id: FotId::new(self.id[i]),
            server: ServerId::new(self.server[i]),
            data_center: DataCenterId::new(self.data_center[i]),
            product_line: ProductLineId::new(self.product_line[i]),
            device: ComponentClass::ALL[self.class[i] as usize],
            device_slot: self.device_slot[i],
            failure_type: FailureType::ALL[self.failure_type[i] as usize],
            error_time: SimTime::from_secs(self.error_secs(i)),
            rack_position: RackPosition::new(self.rack_position[i]),
            detail: self.detail_str(i),
            category: category_from_tag(self.category[i]),
            response,
        }
    }

    /// Every row as a ticket view, in `(error_time, id)` order.
    pub fn iter(&self) -> FotRows<'_> {
        FotRows {
            cols: self,
            rows: 0..self.len(),
        }
    }

    /// The rows `keep` accepts, in order, with the dictionary re-interned
    /// in first-appearance order, as if the kept rows had been pushed
    /// into a fresh [`ColumnsBuilder`].
    pub(crate) fn select(&self, mut keep: impl FnMut(usize) -> bool) -> FotColumns {
        let mut out = ColumnsBuilder::default();
        let mut remap = vec![u32::MAX; self.dict.len()];
        for i in 0..self.len() {
            if keep(i) {
                let detail = &mut remap[self.detail[i] as usize];
                if *detail == u32::MAX {
                    *detail = out.intern(self.detail_str(i));
                }
                out.push_interned(&self.fot(i), *detail);
            }
        }
        out.finish()
    }

    /// Checks every row against the schema, for a fleet snapshot of
    /// `servers` servers, `data_centers` data centers and `product_lines`
    /// product lines:
    ///
    /// * every id and tag is in range, and both seconds-of-day are below
    ///   one day;
    /// * a row has a response (op day not [`NO_RESPONSE_DAY`]) iff its
    ///   category has one, a response has a valid action and does not
    ///   predate its ticket, and a row without one holds the sentinels;
    /// * rows are strictly ascending in `(error_time, id)` and ticket ids
    ///   are unique.
    ///
    /// One fused, branch-light pass decides whether the store is valid;
    /// only a store it rejects takes the column-by-column pass that names
    /// the first violation.
    ///
    /// # Errors
    ///
    /// The first violation, as a [`TraceError`].
    pub(crate) fn validate(
        &self,
        servers: usize,
        data_centers: usize,
        product_lines: usize,
    ) -> Result<(), TraceError> {
        match self.scan(servers, data_centers, product_lines) {
            Scan::Valid => Ok(()),
            Scan::IdsUnordered => self.unique_ids(),
            Scan::Invalid => self.first_violation(servers, data_centers, product_lines),
        }
    }

    /// Every check of [`FotColumns::validate`] but id uniqueness, folded
    /// into one loop that records only whether all of them pass. Ids
    /// that strictly increase are unique, so the uniqueness sort is
    /// needed only when they do not.
    fn scan(&self, servers: usize, data_centers: usize, product_lines: usize) -> Scan {
        let n = self.len();
        let (id, server, data_center, product_line) = (
            &self.id[..n],
            &self.server[..n],
            &self.data_center[..n],
            &self.product_line[..n],
        );
        let (class, failure_type, category, detail) = (
            &self.class[..n],
            &self.failure_type[..n],
            &self.category[..n],
            &self.detail[..n],
        );
        let (error_day, error_sod, op_day, op_sod, operator, action) = (
            &self.error_day[..n],
            &self.error_sod[..n],
            &self.op_day[..n],
            &self.op_sod[..n],
            &self.operator[..n],
            &self.action[..n],
        );
        let error_tag = category_tag(FotCategory::Error);
        let mut ok = true;
        let mut ids_rise = true;
        let (mut prev_secs, mut prev_id) = (0, 0);
        for i in 0..n {
            let secs = u64::from(error_day[i]) * SECS_PER_DAY + u64::from(error_sod[i]);
            let op = u64::from(op_day[i]) * SECS_PER_DAY + u64::from(op_sod[i]);
            let has_response = op_day[i] != NO_RESPONSE_DAY;
            let response = (u64::from(op_sod[i]) < SECS_PER_DAY)
                & action_from_tag(action[i]).is_some()
                & (op >= secs);
            let no_response =
                (op_sod[i] == 0) & (operator[i] == NO_OPERATOR) & (action[i] == NO_ACTION);
            ok &= ((server[i] as usize) < servers)
                & ((data_center[i] as usize) < data_centers)
                & ((product_line[i] as usize) < product_lines)
                & ((class[i] as usize) < ComponentClass::ALL.len())
                & ((failure_type[i] as usize) < FailureType::ALL.len())
                & ((category[i] as usize) < FotCategory::ALL.len())
                & ((detail[i] as usize) < self.dict.len())
                & (u64::from(error_sod[i]) < SECS_PER_DAY)
                & ((category[i] != error_tag) == has_response)
                & ((has_response & response) | (!has_response & no_response));
            // Rows strictly ascend in `(error_time, id)`.
            let first = i == 0;
            let id_rises = id[i] > prev_id;
            ok &= first | (secs > prev_secs) | ((secs == prev_secs) & id_rises);
            ids_rise &= first | id_rises;
            (prev_secs, prev_id) = (secs, id[i]);
        }
        match (ok, ids_rise) {
            (false, _) => Scan::Invalid,
            (true, false) => Scan::IdsUnordered,
            (true, true) => Scan::Valid,
        }
    }

    /// [`FotColumns::validate`]'s checks one column or row at a time, in
    /// the order that decides which violation is reported first.
    fn first_violation(
        &self,
        servers: usize,
        data_centers: usize,
        product_lines: usize,
    ) -> Result<(), TraceError> {
        if let Some(i) = self.server.iter().position(|&s| s as usize >= servers) {
            return Err(TraceError::UnknownServer {
                fot: FotId::new(self.id[i]),
                server: ServerId::new(self.server[i]),
            });
        }
        below("data_center", &self.data_center, data_centers as u64)?;
        below("product_line", &self.product_line, product_lines as u64)?;
        below("class", &self.class, ComponentClass::ALL.len() as u64)?;
        below(
            "failure_type",
            &self.failure_type,
            FailureType::ALL.len() as u64,
        )?;
        below("category", &self.category, FotCategory::ALL.len() as u64)?;
        below("detail", &self.detail, self.dict.len() as u64)?;
        below("error_sod", &self.error_sod, SECS_PER_DAY)?;
        for i in 0..self.len() {
            let fot = FotId::new(self.id[i]);
            let has_response = self.op_day[i] != NO_RESPONSE_DAY;
            if category_from_tag(self.category[i]).has_response() != has_response {
                return Err(TraceError::ResponseMismatch { fot });
            }
            // A response has an action tag and a second of its day;
            // without one, the op fields hold the builder's sentinels.
            let (sod, operator, action) = (self.op_sod[i], self.operator[i], self.action[i]);
            let ok = if has_response {
                [
                    u64::from(sod) < SECS_PER_DAY,
                    true,
                    action_from_tag(action).is_some(),
                ]
            } else {
                [sod == 0, operator == NO_OPERATOR, action == NO_ACTION]
            };
            let fields = [
                ("op_sod", sod.into()),
                ("operator", operator.into()),
                ("action", action.into()),
            ];
            if let Some(k) = ok.iter().position(|&ok| !ok) {
                return Err(TraceError::InvalidColumn {
                    row: i,
                    column: fields[k].0,
                    value: fields[k].1,
                });
            }
            if self.op_secs(i).is_some_and(|op| op < self.error_secs(i)) {
                return Err(TraceError::NegativeResponseTime { fot });
            }
            if i > 0 {
                let prev = (self.error_secs(i - 1), self.id[i - 1]);
                let this = (self.error_secs(i), self.id[i]);
                if this == prev {
                    return Err(TraceError::DuplicateFotId { fot });
                }
                if this < prev {
                    return Err(TraceError::UnsortedFots { fot });
                }
            }
        }
        self.unique_ids()
    }

    /// Fails on the smallest ticket id that repeats.
    fn unique_ids(&self) -> Result<(), TraceError> {
        let mut ids = self.id.clone();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(TraceError::DuplicateFotId {
                fot: FotId::new(w[0]),
            });
        }
        Ok(())
    }
}

/// What [`FotColumns::scan`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scan {
    /// Every row is valid and ids strictly increase.
    Valid,
    /// Every row is valid, but ids must still be checked for repeats.
    IdsUnordered,
    /// Some row is invalid.
    Invalid,
}

/// Fails with the first row of `column` whose value is not below `bound`.
fn below<T: Copy + Into<u64>>(
    column: &'static str,
    values: &[T],
    bound: u64,
) -> Result<(), TraceError> {
    match values.iter().position(|&v| v.into() >= bound) {
        Some(row) => Err(TraceError::InvalidColumn {
            row,
            column,
            value: values[row].into(),
        }),
        None => Ok(()),
    }
}

impl<'a> IntoIterator for &'a FotColumns {
    type Item = Fot<'a>;
    type IntoIter = FotRows<'a>;

    fn into_iter(self) -> FotRows<'a> {
        self.iter()
    }
}

/// Iterator over every row of a [`FotColumns`] as [`Fot`] views, in
/// `(error_time, id)` order; see [`FotColumns::iter`].
#[derive(Debug, Clone)]
pub struct FotRows<'a> {
    cols: &'a FotColumns,
    rows: Range<usize>,
}

impl<'a> Iterator for FotRows<'a> {
    type Item = Fot<'a>;

    #[inline]
    fn next(&mut self) -> Option<Fot<'a>> {
        self.rows.next().map(|i| self.cols.fot(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

/// Dense category tag: position in [`FotCategory::ALL`]
/// (`D_fixing` = 0, `D_error` = 1, `D_falsealarm` = 2).
pub fn category_tag(cat: FotCategory) -> u8 {
    match cat {
        FotCategory::Fixing => 0,
        FotCategory::Error => 1,
        FotCategory::FalseAlarm => 2,
    }
}

/// The [`category_tag`] of `D_falsealarm`, for failure filters.
pub const FALSE_ALARM_TAG: u8 = 2;
/// The [`category_tag`] of `D_fixing`.
pub const FIXING_TAG: u8 = 0;

/// Dense action tag (`IssueRepairOrder` = 0, `MarkFalseAlarm` = 1).
pub fn action_tag(action: OperatorAction) -> u8 {
    match action {
        OperatorAction::IssueRepairOrder => 0,
        OperatorAction::MarkFalseAlarm => 1,
    }
}

/// Inverse of [`action_tag`]; `None` for the no-response sentinel.
pub fn action_from_tag(tag: u8) -> Option<OperatorAction> {
    match tag {
        0 => Some(OperatorAction::IssueRepairOrder),
        1 => Some(OperatorAction::MarkFalseAlarm),
        _ => None,
    }
}

/// Inverse of [`category_tag`].
///
/// # Panics
///
/// Panics on tags outside `0..3`.
pub fn category_from_tag(tag: u8) -> FotCategory {
    FotCategory::ALL[tag as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::fot;

    /// Sorted rows of every category, with repeated and distinct details.
    fn sample_rows() -> Vec<Fot<'static>> {
        let mut rows = vec![
            fot(1, 0, 1, FotCategory::Fixing),
            fot(2, 1, 2, FotCategory::Error),
            fot(3, 0, 3, FotCategory::FalseAlarm),
            fot(4, 1, 5, FotCategory::Fixing),
        ];
        for (row, detail) in rows.iter_mut().zip(["b", "a", "b", "c"]) {
            row.detail = detail;
        }
        rows
    }

    fn build(rows: &[Fot<'_>]) -> FotColumns {
        let mut builder = ColumnsBuilder::with_capacity(rows.len());
        for f in rows {
            builder.push(f);
        }
        builder.finish()
    }

    #[test]
    fn columns_mirror_rows() {
        let rows = sample_rows();
        let cols = build(&rows);
        assert_eq!(cols.len(), rows.len());
        assert!(cols.iter().eq(rows.iter().copied()));
        for (i, f) in rows.iter().enumerate() {
            assert_eq!(cols.fot(i), *f);
            assert_eq!(cols.ids()[i], f.id.raw());
            assert_eq!(cols.servers()[i], f.server.raw());
            assert_eq!(cols.classes()[i] as usize, f.device.index());
            assert_eq!(cols.error_secs(i), f.error_time.as_secs());
            assert_eq!(cols.categories()[i], category_tag(f.category));
            assert_eq!(cols.is_failure(i), f.is_failure());
            assert_eq!(
                cols.op_secs(i),
                f.response.map(|r| r.op_time.as_secs()),
                "row {i}"
            );
            assert_eq!(
                cols.response_days(i),
                f.response_time().map(|d| d.as_days_f64())
            );
            assert_eq!(cols.detail_str(i), f.detail);
            assert_eq!(
                FailureType::ALL[cols.failure_types()[i] as usize],
                f.failure_type
            );
        }
        assert_eq!(cols.validate(3, 1, 1).map_err(|e| e.to_string()), Ok(()));
    }

    #[test]
    fn dict_interns_in_first_appearance_order() {
        let cols = build(&sample_rows());
        assert_eq!(cols.dict(), ["b", "a", "c"]);
        assert_eq!(cols.details(), [0, 1, 0, 2]);
        // A selection re-interns as if its rows were pushed afresh.
        let tail = cols.select(|i| i >= 1);
        assert_eq!(tail, build(&sample_rows()[1..]));
        assert_eq!(tail.dict(), ["a", "b", "c"]);
    }

    #[test]
    fn appended_stretches_equal_one_builder() {
        let rows = sample_rows();
        let whole = build(&rows);
        for at in 0..=rows.len() {
            let mut head = ColumnsBuilder::default();
            for f in &rows[..at] {
                head.push(f);
            }
            head.append(build(&rows[at..]));
            assert_eq!(head.finish(), whole, "split at row {at}");
        }
    }

    #[test]
    fn fused_scan_rejects_what_the_full_pass_rejects() {
        let cols = build(&sample_rows());
        assert_eq!(cols.scan(3, 1, 1), Scan::Valid);
        // Row 1 is the one `Error` row (no response); the others respond.
        let mutations: [fn(&mut FotColumns); 16] = [
            |c| c.server[1] = 3,
            |c| c.data_center[1] = 1,
            |c| c.product_line[2] = 1,
            |c| c.class[0] = ComponentClass::ALL.len() as u8,
            |c| c.failure_type[0] = FailureType::ALL.len() as u8,
            |c| c.category[3] = FotCategory::ALL.len() as u8,
            |c| c.category[1] = category_tag(FotCategory::Fixing),
            |c| c.detail[2] = 3,
            |c| c.error_sod[0] = SECS_PER_DAY as u32,
            |c| c.op_sod[0] = SECS_PER_DAY as u32,
            |c| c.op_day[0] = 0,
            |c| c.action[2] = NO_ACTION,
            |c| c.op_day[1] = 9,
            |c| c.operator[1] = 0,
            |c| c.error_day.swap(2, 3),
            |c| c.id[2] = c.id[1],
        ];
        for (k, mutate) in mutations.iter().enumerate() {
            let mut bad = cols.clone();
            mutate(&mut bad);
            assert_ne!(bad.scan(3, 1, 1), Scan::Valid, "mutation {k}");
            assert!(bad.validate(3, 1, 1).is_err(), "mutation {k}");
        }
        // Unique ids out of order leave only the uniqueness sort to run.
        let mut swapped = cols.clone();
        swapped.id.swap(0, 3);
        assert_eq!(swapped.scan(3, 1, 1), Scan::IdsUnordered);
        assert!(swapped.validate(3, 1, 1).is_ok());
    }

    #[test]
    fn category_and_action_tags_round_trip() {
        for cat in FotCategory::ALL {
            assert_eq!(category_from_tag(category_tag(cat)), cat);
        }
        for action in [
            OperatorAction::IssueRepairOrder,
            OperatorAction::MarkFalseAlarm,
        ] {
            assert_eq!(action_from_tag(action_tag(action)), Some(action));
        }
        assert_eq!(action_from_tag(NO_ACTION), None);
        assert_eq!(category_tag(FotCategory::FalseAlarm), FALSE_ALARM_TAG);
        assert_eq!(category_tag(FotCategory::Fixing), FIXING_TAG);
    }
}
