"""REP014 fixture: commitment state flips that bypass the journal."""


class CommitmentState:
    PENDING = "pending"
    CONFIRMED = "confirmed"
    RELEASED = "released"


class ShadowCommitment:
    def __init__(self) -> None:
        self.state = CommitmentState.PENDING  # flips with no journal call

    def confirm(self) -> None:
        self.state = CommitmentState.CONFIRMED

    def release(self) -> None:
        if self.state != CommitmentState.RELEASED:
            self.state = CommitmentState.RELEASED
