package atms

import (
	"fmt"

	"rchdroid/internal/app"
	"rchdroid/internal/ipc"
	"rchdroid/internal/sim"
)

// Fork deep-copies a settled system server onto sched. procMap translates
// each template process to its fork (built with app.ForkProcess); every
// activity record is re-pointed at the forked process, and each forked
// process's thread is bound to the new server — the same wiring
// LaunchAppWithState performs on a fresh build. The bus (transaction and
// byte counters), stack, global configuration, token counter, starter
// counters and completed handling times are all carried over so the fork
// is indistinguishable from a freshly built world that reached the same
// settle point.
//
// Forking is only legal pre-chaos: an armed starter policy, config fault,
// tracer, logcat, observers or an in-flight handling measurement tie the
// server to its old world and are an error.
func (a *ATMS) Fork(sched *sim.Scheduler, procMap map[*app.Process]*app.Process) (*ATMS, error) {
	switch {
	case a.measuring:
		return nil, fmt.Errorf("atms: fork with handling measurement in flight")
	case a.starter.policy != nil:
		return nil, fmt.Errorf("atms: fork with starter policy installed")
	case a.configFault != nil:
		return nil, fmt.Errorf("atms: fork with config-change fault armed")
	case a.tracer != nil:
		return nil, fmt.Errorf("atms: fork with tracer armed")
	case a.log != nil:
		return nil, fmt.Errorf("atms: fork with logcat attached")
	case a.OnHandled != nil:
		return nil, fmt.Errorf("atms: fork with OnHandled observer")
	case len(a.handlingObservers) > 0 || len(a.resumeObservers) > 0:
		return nil, fmt.Errorf("atms: fork with handling/resume observers")
	}
	sys, err := a.sysLooper.Fork(sched)
	if err != nil {
		return nil, fmt.Errorf("atms: %w", err)
	}
	na := &ATMS{
		sched:         sched,
		model:         a.model,
		bus:           a.bus.Clone(),
		sysLooper:     sys,
		globalConfig:  a.globalConfig,
		nextToken:     a.nextToken,
		handlingStart: a.handlingStart,
	}
	na.endpoint = ipc.NewEndpoint("atms", sys)
	na.starter = &ActivityStarter{
		atms:           na,
		createdRecords: a.starter.createdRecords,
		suppressed:     a.starter.suppressed,
	}
	if len(a.handlingTimes) > 0 {
		na.handlingTimes = append(na.handlingTimes[:0], a.handlingTimes...)
	}
	na.stack = &ActivityStack{tasks: make([]*TaskRecord, 0, len(a.stack.tasks))}
	bound := make(map[*app.Process]bool)
	for _, task := range a.stack.tasks {
		nt := &TaskRecord{Name: task.Name, records: make([]*ActivityRecord, 0, len(task.records))}
		for _, rec := range task.records {
			np := procMap[rec.Proc]
			if np == nil {
				return nil, fmt.Errorf("atms: fork: no forked process for %s", rec.Proc.App().Name)
			}
			cp := *rec
			cp.Proc = np
			nt.records = append(nt.records, &cp)
			if !bound[np] {
				np.Thread().BindSystem(&threadFacade{atms: na})
				bound[np] = true
			}
		}
		na.stack.tasks = append(na.stack.tasks, nt)
	}
	return na, nil
}
