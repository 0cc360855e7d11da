//! Container instances and their lifecycle states.

use aqua_sim::SimTime;

use crate::types::{ContainerId, FunctionId, ResourceConfig, WorkerId};

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Cold boot in progress (runtime setup + init code).
    Booting,
    /// Warm and idle: ready to serve instantly.
    Idle,
    /// At least one invocation slot busy.
    Busy,
}

/// One container instance hosted on a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    /// Unique id within the run.
    pub id: ContainerId,
    /// Function whose code this container holds.
    pub function: FunctionId,
    /// Hosting worker.
    pub worker: WorkerId,
    /// Resources reserved for this container.
    pub config: ResourceConfig,
    /// Current lifecycle state.
    pub state: ContainerState,
    /// When the boot completes / completed.
    pub ready_at: SimTime,
    /// Last time the container finished serving an invocation.
    pub last_used: SimTime,
    /// Invocation slots currently executing.
    pub busy_slots: u32,
    /// Slots of this still-booting container already promised to waiting
    /// invocations (zero once the boot completes and they start running).
    pub claimed: u32,
}

impl Container {
    /// Free invocation slots (0 while booting).
    pub fn free_slots(&self) -> u32 {
        match self.state {
            ContainerState::Booting => 0,
            _ => self.config.concurrency.saturating_sub(self.busy_slots),
        }
    }

    /// True if the container can accept an invocation right now.
    pub fn can_serve(&self) -> bool {
        self.free_slots() > 0
    }

    /// How long the container has been idle at `now` (zero unless idle).
    pub fn idle_for(&self, now: SimTime) -> aqua_sim::SimDuration {
        if self.state == ContainerState::Idle {
            now.saturating_since(self.last_used)
        } else {
            aqua_sim::SimDuration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_sim::SimDuration;

    fn container(state: ContainerState, busy: u32, conc: u32) -> Container {
        Container {
            id: ContainerId(1),
            function: FunctionId(0),
            worker: WorkerId(0),
            config: ResourceConfig::new(1.0, 512.0, conc),
            state,
            ready_at: SimTime::from_secs(1),
            last_used: SimTime::from_secs(2),
            busy_slots: busy,
            claimed: 0,
        }
    }

    #[test]
    fn booting_cannot_serve() {
        assert!(!container(ContainerState::Booting, 0, 2).can_serve());
    }

    #[test]
    fn idle_serves() {
        assert!(container(ContainerState::Idle, 0, 1).can_serve());
    }

    #[test]
    fn busy_with_spare_slot_serves() {
        assert!(container(ContainerState::Busy, 1, 2).can_serve());
        assert!(!container(ContainerState::Busy, 2, 2).can_serve());
    }

    #[test]
    fn idle_duration_only_when_idle() {
        let c = container(ContainerState::Idle, 0, 1);
        assert_eq!(
            c.idle_for(SimTime::from_secs(10)),
            SimDuration::from_secs(8)
        );
        let b = container(ContainerState::Busy, 1, 1);
        assert_eq!(b.idle_for(SimTime::from_secs(10)), SimDuration::ZERO);
    }
}
